#include "common/crc.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"

namespace nrs {
namespace {

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector bits(n);
  for (auto& b : bits) {
    b = rng.chance(0.5) ? 1 : 0;
  }
  return bits;
}

TEST(Crc, AttachThenCheckPasses) {
  Rng rng(1);
  for (const CrcGenerator* crc :
       {&kCrc24A, &kCrc24B, &kCrc24C, &kCrc16, &kCrc11, &kCrc6}) {
    BitVector bits = random_bits(rng, 48);
    crc->attach(bits);
    EXPECT_TRUE(crc->check(bits)) << "poly length " << crc->length();
  }
}

TEST(Crc, SingleBitFlipDetected) {
  Rng rng(2);
  BitVector bits = random_bits(rng, 64);
  kCrc24A.attach(bits);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    BitVector corrupted = bits;
    corrupted[i] ^= 1;
    EXPECT_FALSE(kCrc24A.check(corrupted)) << "flip at " << i;
  }
}

TEST(Crc, EmptyPayloadCrcIsZero) {
  const BitVector empty;
  EXPECT_EQ(kCrc24C.compute(empty), 0u);
}

TEST(Crc, CheckTooShortFails) {
  const BitVector bits(10, 0);
  EXPECT_FALSE(kCrc24A.check(bits));
}

TEST(Crc, RntiMaskRoundTrip) {
  Rng rng(3);
  BitVector bits = random_bits(rng, 40);
  kCrc24C.attach(bits);
  const Rnti rnti = 0x4601;
  kCrc24C.mask_rnti(bits, rnti);
  EXPECT_FALSE(kCrc24C.check(bits)) << "masked CRC must not check plain";
  EXPECT_TRUE(kCrc24C.check_masked(bits, rnti));
  EXPECT_FALSE(kCrc24C.check_masked(bits, 0x4602));
}

TEST(Crc, RecoverMaskFindsRnti) {
  // The paper's C-RNTI recovery: crc(payload) XOR received-crc == RNTI.
  Rng rng(4);
  for (Rnti rnti : {Rnti{0x0001}, Rnti{0x4601}, Rnti{0xFFF0}, Rnti{0xFFFF}}) {
    BitVector bits = random_bits(rng, 44);
    kCrc24C.attach(bits);
    kCrc24C.mask_rnti(bits, rnti);
    EXPECT_EQ(kCrc24C.recover_mask(bits), rnti);
  }
}

TEST(Crc, RecoveredMaskSatisfiesFullCheck) {
  // After unmasking with the recovered RNTI, the whole 24-bit CRC checks.
  Rng rng(5);
  BitVector bits = random_bits(rng, 44);
  kCrc24C.attach(bits);
  kCrc24C.mask_rnti(bits, 0xABCD);
  const Rnti mask = kCrc24C.recover_mask(bits);
  EXPECT_TRUE(kCrc24C.check_masked(bits, mask));
}

TEST(Crc, Crc16KnownVector) {
  // CRC-16/CCITT of one zero byte with zero init is 0x0000; of 0xFF.. check
  // self-consistency instead: codeword property.
  BitVector bits = {1, 0, 1, 0, 1, 0, 1, 0};
  kCrc16.attach(bits);
  EXPECT_EQ(bits.size(), 8u + 16u);
  EXPECT_TRUE(kCrc16.check(bits));
}

TEST(Crc, DifferentPolynomialsDisagree) {
  Rng rng(6);
  BitVector payload = random_bits(rng, 32);
  BitVector a = payload;
  kCrc24A.attach(a);
  BitVector c = payload;
  kCrc24C.attach(c);
  EXPECT_NE(a, c);
  EXPECT_FALSE(kCrc24C.check(a));
  EXPECT_FALSE(kCrc24A.check(c));
}

/// One CRC under test. Printed by name so the generated test names do not
/// carry the generator's address, which moves from run to run.
struct CrcCase {
  const char* name;
  const CrcGenerator* crc;
  unsigned length;

  friend void PrintTo(const CrcCase& c, std::ostream* os) {
    *os << "(" << c.name << ", " << c.length << ")";
  }
};

class CrcLengthTest : public ::testing::TestWithParam<CrcCase> {};

TEST_P(CrcLengthTest, LengthsMatch) {
  EXPECT_EQ(GetParam().crc->length(), GetParam().length);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolys, CrcLengthTest,
    ::testing::Values(CrcCase{"crc24a", &kCrc24A, 24u},
                      CrcCase{"crc24b", &kCrc24B, 24u},
                      CrcCase{"crc24c", &kCrc24C, 24u},
                      CrcCase{"crc16", &kCrc16, 16u},
                      CrcCase{"crc11", &kCrc11, 11u},
                      CrcCase{"crc6", &kCrc6, 6u}));

}  // namespace
}  // namespace nrs
