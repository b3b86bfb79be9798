// One list per counter struct. A struct names its std::uint64_t counters
// once, in an X-macro list (e.g. SDUR_CLIENT_COUNTER_LIST in
// sdur/client.h), and expands it with SDUR_COUNTERS(Self, LIST), which
// declares each counter as a zero-initialised member, in list order, and
// derives from the same list
//   s += o          a field-wise sum, and
//   s.for_each(f)   f(const char* name, std::uint64_t value) per counter,
//                   in declaration order.
// A name listed twice is a duplicate member and fails to compile. Comments
// in a list must be /* */: a // comment swallows the line continuation.
#pragma once

#include <cstdint>

#define SDUR_COUNTER_DECLARE_(name) std::uint64_t name = 0;
#define SDUR_COUNTER_ADD_(name) name += o.name;
#define SDUR_COUNTER_VISIT_(name) f(#name, name);

#define SDUR_COUNTERS(Self, LIST)   \
  LIST(SDUR_COUNTER_DECLARE_)       \
  Self& operator+=(const Self& o) { \
    LIST(SDUR_COUNTER_ADD_)         \
    return *this;                   \
  }                                 \
  template <class F>                \
  void for_each(F&& f) const {      \
    LIST(SDUR_COUNTER_VISIT_)       \
  }
