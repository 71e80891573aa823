// Registration of the framework's standard element classes.
#include "click/elements_basic.hpp"
#include "click/elements_io.hpp"
#include "click/elements_queue.hpp"
#include "click/registry.hpp"

namespace pp::click {

void register_standard_elements(Registry& r) {
  r.register_class("FromDevice", [] { return std::make_unique<FromDevice>(); });
  r.register_class("ToDevice", [] { return std::make_unique<ToDevice>(); });
  r.register_class("CheckIPHeader", [] { return std::make_unique<CheckIPHeader>(); });
  r.register_class("DecIPTTL", [] { return std::make_unique<DecIPTTL>(); });
  r.register_class("Counter", [] { return std::make_unique<Counter>(); });
  r.register_class("Discard", [] { return std::make_unique<Discard>(); });
  r.register_class("ControlShim", [] { return std::make_unique<ControlShim>(); });
  r.register_class("Queue", [] { return std::make_unique<Queue>(); });
  r.register_class("Unqueue", [] { return std::make_unique<Unqueue>(); });
}

}  // namespace pp::click
