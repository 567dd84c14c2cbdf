// Binary serialization for trit streams and test sets.
//
// The ATE-side tooling (tools/ninec) stores compressed streams TE on disk;
// TE still carries X symbols (the leftover don't-cares), so the format packs
// four trits per byte rather than raw bits. Layout, little-endian:
//
//   magic "NCT1" | u8 kind (0 = TritVector, 1 = TestSet)
//   kind 0: u64 size                  | ceil(size/4) payload bytes
//   kind 1: u64 patterns, u64 width   | ceil(patterns*width/4) payload bytes
//
// Each payload byte holds trits at offsets 0..3, two bits each, value
// 0b00 = '0', 0b01 = '1', 0b10 = 'X'; 0b11 is invalid and rejected (codes in the
// unused tail of a partial last byte are ignored).
#pragma once

#include <iosfwd>
#include <string>

#include "bits/test_set.h"
#include "bits/trit_vector.h"

namespace nc::bits {

void save_trits(std::ostream& out, const TritVector& v);
TritVector load_trits(std::istream& in);

void save_test_set(std::ostream& out, const TestSet& ts);
TestSet load_test_set(std::istream& in);

/// File helpers; throw std::runtime_error on I/O or format errors.
void save_trits_file(const std::string& path, const TritVector& v);
TritVector load_trits_file(const std::string& path);
void save_test_set_file(const std::string& path, const TestSet& ts);
TestSet load_test_set_file(const std::string& path);

}  // namespace nc::bits
