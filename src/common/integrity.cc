#include "common/integrity.h"

namespace structura {

void IntegrityCounters::Merge(const IntegrityCounters& other) {
  for (const IntegrityField& f : kIntegrityFields) {
    this->*f.value += other.*f.value;
  }
}

std::string IntegrityCounters::ToString() const {
  std::string out;
  for (const IntegrityField& f : kIntegrityFields) {
    if (!out.empty()) out += ' ';
    out += std::string(f.name) + "=" + std::to_string(this->*f.value);
  }
  return out;
}

}  // namespace structura
