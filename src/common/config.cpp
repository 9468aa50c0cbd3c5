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

u32 parse_u32(const std::string& text, const std::string& what) {
  const u64 value = parse_u64(text, what);
  if (value > 0xffffffffu)
    throw std::invalid_argument(what + ": " + std::to_string(value) + " does not fit in 32 bits");
  return static_cast<u32>(value);
}

namespace {

// The key of an option spelled `typed`: leading dashes dropped, inner dashes
// read as underscores.
std::string key_of(const std::string& typed) {
  std::string key = typed.substr(std::min(typed.find_first_not_of('-'), typed.size()));
  std::replace(key.begin(), key.end(), '-', '_');
  return key;
}

bool is_option(const std::string& tok) { return tok.size() > 1 && tok[0] == '-'; }

}  // namespace

void Options::put(const std::string& typed, const std::string& value) {
  values_.insert_or_assign(key_of(typed), Value{value, typed});
}

Options Options::from_args(int argc, const char* const* argv,
                           const std::set<std::string>& flags) {
  // Join each `--key value` into `--key=value`; from_tokens does the rest.
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    // The next token is this option's value unless the option is a
    // declared flag or the next token is itself an option.
    const std::string next = i + 1 < argc ? argv[i + 1] : "";
    const bool takes_next = is_option(tok) && tok.find('=') == std::string::npos &&
                            !key_of(tok).empty() && flags.count(key_of(tok)) == 0 &&
                            i + 1 < argc &&
                            (next == "-" || next[0] != '-') &&
                            next.find('=') == std::string::npos;
    tokens.push_back(takes_next ? tok + "=" + argv[++i] : tok);
  }
  return from_tokens(tokens);
}

Options Options::from_tokens(const std::vector<std::string>& tokens) {
  Options opts;
  for (const auto& tok : tokens) {
    const auto eq = tok.find('=');
    if ((eq != std::string::npos || is_option(tok)) && key_of(tok.substr(0, eq)).empty())
      throw std::invalid_argument("option '" + tok + "' has no key");
    if (eq != std::string::npos)
      opts.put(tok.substr(0, eq), tok.substr(eq + 1));
    else if (is_option(tok))
      opts.put(tok, "1");  // bare flag
    else
      opts.positional_.push_back(tok);  // including a lone "-"
  }
  return opts;
}

const std::string* Options::find(const std::string& key) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second.value;
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
  throw std::invalid_argument("unknown option " + values_.at(unread.front()).typed + note);
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
  const std::string* v = find(key);
  return v == nullptr ? fallback : parse_u32(*v, "option " + key);
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

std::vector<u32> Options::get_u32_list(const std::string& key) const {
  std::vector<u32> out;
  for (const std::string& item : get_list(key)) out.push_back(parse_u32(item, "option " + key));
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
