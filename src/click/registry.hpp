// Element class registry: maps configuration-language class names
// ("RadixIPLookup", "CheckIPHeader", ...) to factories.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "click/element.hpp"

namespace pp::click {

class Registry {
 public:
  using Factory = std::function<std::unique_ptr<Element>()>;

  /// Register a class; overwrites any previous binding of the same name.
  void register_class(std::string name, Factory factory);

  /// Instantiate by class name; nullptr if unknown.
  [[nodiscard]] std::unique_ptr<Element> create(std::string_view name) const;

  [[nodiscard]] bool knows(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> class_names() const;

 private:
  std::vector<std::pair<std::string, Factory>> classes_;
};

/// Register the framework's standard elements (FromDevice, ToDevice, Queue,
/// Unqueue, CheckIPHeader, DecIPTTL, Counter, Discard, ControlShim).
/// Application elements register via apps::register_app_elements.
void register_standard_elements(Registry& r);

}  // namespace pp::click
