#include "common/config.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>

namespace tlrob {

u64 parse_u64(const std::string& text, const std::string& what) {
  // strtoull alone would skip leading blanks, negate a '-' and stop at the
  // first junk character; only a bare digit string may pass.
  const bool digits_first = !text.empty() && text[0] >= '0' && text[0] <= '9';
  char* end = nullptr;
  errno = 0;
  const u64 value = digits_first ? std::strtoull(text.c_str(), &end, 0) : 0;
  if (!digits_first || *end != '\0' || errno == ERANGE)
    throw std::invalid_argument(what + ": expected an unsigned integer, got '" + text + "'");
  return value;
}

Options Options::from_args(int argc, const char* const* argv,
                           const std::set<std::string>& flags) {
  auto strip_dashes = [](const std::string& s, size_t limit) {
    size_t dashes = 0;
    while (dashes < limit && s[dashes] == '-') ++dashes;
    return dashes;
  };
  auto normalise = [](std::string key) {
    std::replace(key.begin(), key.end(), '-', '_');
    return key;
  };
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      const size_t dashes = strip_dashes(tok, eq);
      tokens.push_back(normalise(tok.substr(dashes, eq - dashes)) + tok.substr(eq));
    } else if (tok.size() > 1 && tok[0] == '-') {
      const std::string key = normalise(tok.substr(strip_dashes(tok, tok.size())));
      // The next token is this option's value unless the option is a
      // declared flag or the next token is itself an option.
      const std::string next = i + 1 < argc ? argv[i + 1] : "";
      const bool next_is_value = i + 1 < argc && (next == "-" || next[0] != '-') &&
                                 next.find('=') == std::string::npos;
      if (flags.count(key) == 0 && next_is_value)
        tokens.push_back(key + "=" + argv[++i]);
      else
        tokens.push_back("--" + key);
    } else {
      tokens.push_back(tok);  // positional, including a lone "-"
    }
  }
  return from_tokens(tokens);
}

Options Options::from_tokens(const std::vector<std::string>& tokens) {
  Options opts;
  for (const auto& tok : tokens) {
    // Accept both "key=value" and "--key=value".
    size_t dashes = 0;
    while (dashes < tok.size() && tok[dashes] == '-') ++dashes;
    const std::string t = tok.substr(dashes);
    auto eq = t.find('=');
    if (eq == std::string::npos) {
      if (tok.size() > 1 && tok[0] == '-') {
        // (insert_or_assign sidesteps GCC 12's -Wrestrict false positive on
        // map-subscript assignment from a literal, PR105329.)
        opts.values_.insert_or_assign(t, std::string("1"));  // bare flag
      } else {
        opts.positional_.push_back(tok);
      }
    } else {
      opts.values_[t.substr(0, eq)] = t.substr(eq + 1);
    }
  }
  return opts;
}

const std::string* Options::find(const std::string& key) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::vector<std::string> Options::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& kv : values_)
    if (read_.count(kv.first) == 0) out.push_back(kv.first);
  return out;
}

void Options::require_all_read(const std::string& note) const {
  const std::vector<std::string> unread = unread_keys();
  if (unread.empty()) return;
  std::string flag = unread.front();
  std::replace(flag.begin(), flag.end(), '_', '-');
  throw std::invalid_argument("unknown option --" + flag + note);
}

std::string Options::get(const std::string& key, const std::string& fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : *v;
}

u64 Options::get_u64(const std::string& key, u64 fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : parse_u64(*v, "option " + key);
}

u32 Options::get_u32(const std::string& key, u32 fallback) const {
  const u64 value = get_u64(key, fallback);
  if (value > 0xffffffffu)
    throw std::invalid_argument("option " + key + ": " + std::to_string(value) +
                                " does not fit in 32 bits");
  return static_cast<u32>(value);
}

double Options::get_double(const std::string& key, double fallback) const {
  const std::string* v = find(key);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double value = std::strtod(v->c_str(), &end);
  if (v->empty() || *end != '\0')
    throw std::invalid_argument("option " + key + ": expected a number, got '" + *v + "'");
  return value;
}

std::vector<std::string> Options::get_list(const std::string& key) const {
  std::vector<std::string> out;
  const std::string csv = get(key);
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<u64> Options::get_u64_list(const std::string& key) const {
  std::vector<u64> out;
  for (const std::string& item : get_list(key)) out.push_back(parse_u64(item, "option " + key));
  return out;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const std::string* v = find(key);
  if (v == nullptr) return fallback;
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  throw std::invalid_argument("option " + key +
                              ": expected 0/1, true/false, yes/no or on/off, got '" + *v + "'");
}

int cli_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace tlrob
