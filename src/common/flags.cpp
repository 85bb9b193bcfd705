#include "common/flags.hpp"

#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"

namespace sanmap::common {

void Flags::define(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  SANMAP_CHECK_MSG(!specs_.contains(name), "duplicate flag --" << name);
  specs_[name] = Spec{default_value, help, std::nullopt};
}

bool Flags::parse(int argc, const char* const* argv) {
  if (argc > 0) {
    program_ = argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = body.find('='); eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }
    auto it = specs_.find(body);
    if (it == specs_.end()) {
      // Accept --no-flag for booleans.
      if (body.rfind("no-", 0) == 0) {
        auto base = specs_.find(body.substr(3));
        if (base != specs_.end() && !has_value) {
          base->second.value = "false";
          continue;
        }
      }
      throw std::runtime_error("unknown flag --" + body + "\n" + usage());
    }
    if (!has_value) {
      // Boolean flags may omit the value; others consume the next argument.
      const std::string& def = it->second.default_value;
      const bool is_bool = (def == "true" || def == "false");
      if (is_bool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw std::runtime_error("flag --" + body + " expects a value");
      }
    }
    it->second.value = value;
  }
  return true;
}

std::string Flags::get(const std::string& name) const {
  auto it = specs_.find(name);
  SANMAP_CHECK_MSG(it != specs_.end(), "undefined flag --" << name);
  return it->second.value.value_or(it->second.default_value);
}

// The whole value must parse: a prefix that happens to parse ("3x",
// "1.5" as an integer) must not silently change an experiment. A failed
// parse leaves `used` at 0, which no successful parse does.
std::int64_t Flags::get_int(const std::string& name) const {
  const std::string v = get(name);
  std::size_t used = 0;
  std::int64_t parsed = 0;
  try {
    parsed = std::stoll(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size()) {
    throw std::runtime_error("flag --" + name + " is not an integer: " + v);
  }
  return parsed;
}

double Flags::get_double(const std::string& name) const {
  const std::string v = get(name);
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size()) {
    throw std::runtime_error("flag --" + name + " is not a number: " + v);
  }
  return parsed;
}

bool Flags::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no") {
    return false;
  }
  throw std::runtime_error("flag --" + name + " is not a boolean: " + v);
}

std::string Flags::usage() const {
  std::ostringstream oss;
  oss << "usage: " << program_ << " [flags]\n";
  for (const auto& [name, spec] : specs_) {
    oss << "  --" << name << " (default: " << spec.default_value << ")\n"
        << "      " << spec.help << '\n';
  }
  return oss.str();
}

}  // namespace sanmap::common
