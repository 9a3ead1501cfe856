// Module: a named model component bound to an environment, mirroring
// sc_module's naming role.
//
// Modules exist to give their children, traced values, timer rearm
// registrations and diagnostics hierarchical names.
#pragma once

#include <string>
#include <utility>

#include "sim/environment.hpp"

namespace btsc::sim {

class Module {
 public:
  Module(Environment& env, std::string name)
      : env_(env), name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }
  Environment& env() { return env_; }
  const Environment& env() const { return env_; }

 protected:
  /// Builds "<module>.<leaf>" names for child modules and traced values.
  std::string child_name(const std::string& leaf) const {
    return name_ + "." + leaf;
  }

 private:
  Environment& env_;
  std::string name_;
};

}  // namespace btsc::sim
