// Allocation meter for the fuzzers: linking alloc_meter.cpp into an
// executable replaces the global operator new with a counting wrapper
// over malloc, so a fuzzer can bound the bytes a parse asks for against
// the size of its input.
#pragma once

#include <cstddef>

namespace cellscope::test {

/// Bytes requested through operator new by every thread since the
/// process started (never decreases).
std::size_t allocated_bytes();

}  // namespace cellscope::test
