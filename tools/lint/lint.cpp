// Driver plumbing for tlrob-lint: the compile_commands.json file
// enumeration. The JSON parsing reuses the campaign runner's deterministic
// parser (runner/json.hpp) — the lint tool links the tlrob library anyway
// for common/types.
#include "lint/lint.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "runner/json.hpp"

namespace tlrob::lint {

std::vector<std::string> compile_db_files(const std::string& db_path) {
  std::ifstream in(db_path);
  if (!in.is_open())
    throw std::runtime_error("cannot read compile database " + db_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const runner::JsonValue db = runner::parse_json(ss.str());
  if (!db.is_array())
    throw std::runtime_error(db_path + " is not a compile database array");
  std::vector<std::string> files;
  for (const runner::JsonValue& entry : db.items) {
    const runner::JsonValue& file = entry.at("file");
    if (file.kind != runner::JsonValue::Kind::kString) continue;
    std::string path = file.as_string();
    if (path.empty()) continue;
    if (path[0] != '/') {
      const runner::JsonValue& dir = entry.at("directory");
      if (dir.kind == runner::JsonValue::Kind::kString)
        path = dir.as_string() + "/" + path;
    }
    files.push_back(std::move(path));
  }
  return files;
}

}  // namespace tlrob::lint
