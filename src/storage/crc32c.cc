#include "storage/crc32c.h"

#include <atomic>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define XQP_CRC32C_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define XQP_CRC32C_ARM 1
#include <arm_acle.h>
#endif

namespace xqp {
namespace storage {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // Reflected: bit 31 holds x^0.

/// Software fallback: standard byte-at-a-time table for the Castagnoli
/// polynomial, generated at first use. ~400MB/s — the validation pass is
/// still far cheaper than re-parsing the XML it replaces.
struct SwTable {
  uint32_t t[256];
  SwTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};

uint32_t SwExtend(uint32_t crc, const uint8_t* p, size_t n) {
  static const SwTable table;
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) {
    c = table.t[(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return ~c;
}

#if defined(XQP_CRC32C_X86)

/// a·b mod P over reflected polynomials.
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t p = 0;
  for (int i = 0; i < 32; ++i) {
    if (a & (0x80000000u >> i)) p ^= b;  // a's x^i term.
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;  // b·x.
  }
  return p;
}

/// x^e mod P by square-and-multiply.
uint32_t XPowModP(uint64_t e) {
  uint32_t result = 0x80000000u;  // x^0.
  uint32_t base = 0x40000000u;    // x^1.
  for (; e != 0; e >>= 1) {
    if (e & 1) result = MultModP(result, base);
    base = MultModP(base, base);
  }
  return result;
}

/// Advances a raw CRC register across `bytes` zero bytes, c·x^(8·bytes)
/// mod P, with one table lookup per register byte. This is what lets
/// independent streams over consecutive blocks combine into one CRC.
class ZerosShift {
 public:
  explicit ZerosShift(size_t bytes) {
    const uint32_t xn = XPowModP(8 * static_cast<uint64_t>(bytes));
    for (int k = 0; k < 4; ++k) {
      for (uint32_t b = 0; b < 256; ++b) t_[k][b] = MultModP(xn, b << (8 * k));
    }
  }
  uint32_t Apply(uint32_t c) const {
    return t_[0][c & 0xff] ^ t_[1][(c >> 8) & 0xff] ^
           t_[2][(c >> 16) & 0xff] ^ t_[3][c >> 24];
  }

 private:
  uint32_t t_[4][256];
};

inline uint64_t Load64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

/// One CRC instruction has a latency of about three cycles but a
/// throughput of one a cycle, so a single dependent stream runs at a third
/// of the unit's speed. Three streams over consecutive `block`-byte thirds
/// of the input keep it busy; the shift by one block then folds stream 0
/// into 1 and the result into 2.
__attribute__((target("sse4.2"))) uint32_t ThreeStreams(
    uint32_t c0, const uint8_t* p, size_t block, const ZerosShift& shift) {
  uint64_t a = c0;
  uint64_t b = 0;
  uint64_t c = 0;
  for (const uint8_t* end = p + block; p < end; p += 8) {
    a = _mm_crc32_u64(a, Load64(p));
    b = _mm_crc32_u64(b, Load64(p + block));
    c = _mm_crc32_u64(c, Load64(p + 2 * block));
  }
  uint32_t folded = shift.Apply(static_cast<uint32_t>(a)) ^
                    static_cast<uint32_t>(b);
  return shift.Apply(folded) ^ static_cast<uint32_t>(c);
}

/// Block sizes of the three-stream kernel (multiples of 8): long blocks
/// for bulk data, short ones so mid-sized buffers also take three streams.
constexpr size_t kLongBlock = 8192;
constexpr size_t kShortBlock = 256;

__attribute__((target("sse4.2"))) uint32_t HwExtend(uint32_t crc,
                                                    const uint8_t* p,
                                                    size_t n) {
  static const ZerosShift long_shift(kLongBlock);
  static const ZerosShift short_shift(kShortBlock);
  uint32_t c32 = ~crc;
  for (; n >= 3 * kLongBlock; p += 3 * kLongBlock, n -= 3 * kLongBlock) {
    c32 = ThreeStreams(c32, p, kLongBlock, long_shift);
  }
  for (; n >= 3 * kShortBlock; p += 3 * kShortBlock, n -= 3 * kShortBlock) {
    c32 = ThreeStreams(c32, p, kShortBlock, short_shift);
  }
  uint64_t c = c32;
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, Load64(p));
  c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}

bool HwAvailable() { return __builtin_cpu_supports("sse4.2"); }

#elif defined(XQP_CRC32C_ARM)

uint32_t HwExtend(uint32_t crc, const uint8_t* p, size_t n) {
  uint32_t c = ~crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = __crc32cd(c, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = __crc32cb(c, *p++);
    --n;
  }
  return ~c;
}

// __ARM_FEATURE_CRC32 means the compiler already targets a CPU with the
// CRC extension, so no runtime probe is needed.
bool HwAvailable() { return true; }

#else

uint32_t HwExtend(uint32_t crc, const uint8_t* p, size_t n) {
  return SwExtend(crc, p, n);
}
bool HwAvailable() { return false; }

#endif

/// One-time dispatch: 0 = undecided, 1 = hardware, 2 = software.
std::atomic<int> g_impl{0};

int Impl() {
  int impl = g_impl.load(std::memory_order_relaxed);
  if (impl == 0) {
    impl = HwAvailable() ? 1 : 2;
    g_impl.store(impl, std::memory_order_relaxed);
  }
  return impl;
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  return Impl() == 1 ? HwExtend(crc, p, size) : SwExtend(crc, p, size);
}

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t size) {
  return SwExtend(crc, static_cast<const uint8_t*>(data), size);
}

uint32_t Crc32c(const void* data, size_t size) {
  return Crc32cExtend(0, data, size);
}

const char* Crc32cImplName() { return Impl() == 1 ? "hw" : "sw"; }

}  // namespace storage
}  // namespace xqp
