#include "util/cli.hpp"

#include <charconv>
#include <iostream>
#include <sstream>

#include "util/error.hpp"

namespace monohids::util {

CliFlags::CliFlags(std::string program_summary) : summary_(std::move(program_summary)) {}

CliFlags& CliFlags::add_int(std::string name, std::int64_t default_value, std::string help) {
  Flag f;
  f.kind = Kind::Int;
  f.help = std::move(help);
  f.default_text = std::to_string(default_value);
  f.int_value = default_value;
  order_.push_back(name);
  flags_.emplace(std::move(name), std::move(f));
  return *this;
}

CliFlags& CliFlags::add_double(std::string name, double default_value, std::string help) {
  std::ostringstream os;
  os << default_value;
  Flag f;
  f.kind = Kind::Double;
  f.help = std::move(help);
  f.default_text = os.str();
  f.double_value = default_value;
  order_.push_back(name);
  flags_.emplace(std::move(name), std::move(f));
  return *this;
}

CliFlags& CliFlags::add_string(std::string name, std::string default_value, std::string help) {
  Flag f;
  f.kind = Kind::String;
  f.help = std::move(help);
  f.default_text = default_value;
  f.string_value = std::move(default_value);
  order_.push_back(name);
  flags_.emplace(std::move(name), std::move(f));
  return *this;
}

CliFlags& CliFlags::add_bool(std::string name, bool default_value, std::string help) {
  Flag f;
  f.kind = Kind::Bool;
  f.help = std::move(help);
  f.default_text = default_value ? "true" : "false";
  f.bool_value = default_value;
  order_.push_back(name);
  flags_.emplace(std::move(name), std::move(f));
  return *this;
}

void CliFlags::set_from_text(Flag& flag, std::string_view name, std::string_view text) {
  switch (flag.kind) {
    case Kind::Int: {
      std::int64_t v = 0;
      auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      MONOHIDS_ENSURE(ec == std::errc{} && ptr == text.data() + text.size(),
                      "flag --" + std::string(name) + " expects an integer, got '" +
                          std::string(text) + "'");
      flag.int_value = v;
      break;
    }
    case Kind::Double: {
      // std::from_chars for double is available in GCC 12; use it.
      double v = 0.0;
      auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      MONOHIDS_ENSURE(ec == std::errc{} && ptr == text.data() + text.size(),
                      "flag --" + std::string(name) + " expects a number, got '" +
                          std::string(text) + "'");
      flag.double_value = v;
      break;
    }
    case Kind::String:
      flag.string_value = std::string(text);
      break;
    case Kind::Bool:
      if (text == "true" || text == "1") {
        flag.bool_value = true;
      } else if (text == "false" || text == "0") {
        flag.bool_value = false;
      } else {
        throw InputError("flag --" + std::string(name) + " expects true/false, got '" +
                         std::string(text) + "'");
      }
      break;
  }
}

bool CliFlags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage(argc > 0 ? argv[0] : "program");
      return false;
    }
    MONOHIDS_ENSURE(arg.substr(0, 2) == "--", "unexpected positional argument '" +
                                                  std::string(arg) + "'");
    arg.remove_prefix(2);
    std::string_view name = arg;
    std::optional<std::string_view> value;
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    auto it = flags_.find(name);
    MONOHIDS_ENSURE(it != flags_.end(), "unknown flag --" + std::string(name));
    Flag& flag = it->second;
    if (!value) {
      if (flag.kind == Kind::Bool) {
        flag.bool_value = true;  // bare --flag enables a boolean
        continue;
      }
      MONOHIDS_ENSURE(i + 1 < argc, "flag --" + std::string(name) + " is missing a value");
      value = argv[++i];
    }
    set_from_text(flag, name, *value);
  }
  return true;
}

const CliFlags::Flag& CliFlags::find(std::string_view name, Kind kind) const {
  auto it = flags_.find(name);
  MONOHIDS_EXPECT(it != flags_.end(), "flag was never registered: " + std::string(name));
  MONOHIDS_EXPECT(it->second.kind == kind, "flag accessed with wrong type: " + std::string(name));
  return it->second;
}

std::int64_t CliFlags::get_int(std::string_view name) const {
  return find(name, Kind::Int).int_value;
}
double CliFlags::get_double(std::string_view name) const {
  return find(name, Kind::Double).double_value;
}
const std::string& CliFlags::get_string(std::string_view name) const {
  return find(name, Kind::String).string_value;
}
bool CliFlags::get_bool(std::string_view name) const { return find(name, Kind::Bool).bool_value; }

std::string CliFlags::usage(std::string_view program_name) const {
  std::ostringstream os;
  os << summary_ << "\n\nUsage: " << program_name << " [flags]\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name << " (default: " << f.default_text << ")\n      " << f.help << '\n';
  }
  return os.str();
}

}  // namespace monohids::util
