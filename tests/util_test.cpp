// Unit tests for util: byte codec, shared byte slices, bloom filters, key sets, histograms,
// Zipf generator, RNG determinism.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "util/bloom.h"
#include "util/bytes.h"
#include "util/codec.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/zipf.h"

namespace sdur::util {
namespace {

TEST(Bytes, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintRoundTrip) {
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384, 1ULL << 32, UINT64_MAX};
  Writer w;
  for (std::uint64_t v : values) w.varint(v);
  Reader r(w.data());
  for (std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, StringsRoundTrip) {
  Writer w;
  w.bytes(std::string_view(""));
  w.bytes(std::string_view("hello"));
  std::string big(10'000, 'z');
  w.bytes(std::string_view(big));
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), "");
  EXPECT_EQ(r.bytes(), "hello");
  EXPECT_EQ(r.bytes(), big);
}

TEST(Bytes, TruncatedBufferThrows) {
  Writer w;
  w.u64(12345);
  Reader r(w.data().data(), 4);  // cut in half
  EXPECT_THROW(r.u64(), CodecError);
}

TEST(Bytes, TruncatedStringThrows) {
  // Claims 100 bytes follow; then a length so large that the read position
  // plus it wraps around.
  for (const std::uint64_t claimed : {std::uint64_t{100}, ~std::uint64_t{0}}) {
    Writer w;
    w.varint(claimed);
    w.raw("abc", 3);
    Reader r(w.data());
    EXPECT_THROW(r.bytes(), CodecError) << claimed;
    Reader s(w.data());
    EXPECT_THROW(s.shared(), CodecError) << claimed;
  }
}

TEST(Bytes, MalformedVarintThrows) {
  Bytes bad(11, 0xFF);  // 11 continuation bytes > max varint length
  Reader r(bad);
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(SharedBytes, DecodedFromPlainBytesOutlivesThem) {
  SharedBytes kept;
  {
    Writer w;
    w.bytes(std::string_view("payload"));
    const Bytes buf = std::move(w).take();
    Reader r(buf);
    kept = r.shared();
  }
  // The reader had no owner, so the value copied its bytes: reading them
  // after the buffer is gone is sound (the ASan stage checks this).
  EXPECT_EQ(std::string(kept.begin(), kept.end()), "payload");
}

TEST(SharedBytes, DecodedFromAnOwnerIsASliceOfIt) {
  Writer w;
  w.bytes(std::string_view("abc"));
  w.bytes(std::string_view(""));
  const auto owner = std::make_shared<const Bytes>(std::move(w).take());
  Reader r(owner);
  const SharedBytes abc = r.shared();
  EXPECT_EQ(abc.owner(), owner);
  EXPECT_EQ(abc.data(), owner->data() + 1) << "after the one-byte length prefix";
  EXPECT_TRUE(r.shared().empty());
  EXPECT_TRUE(r.done());
  // A reader over the slice slices the same buffer again.
  Writer inner;
  inner.bytes(abc);
  const SharedBytes framed = std::move(inner).take();
  Reader r2(framed);
  const SharedBytes again = r2.shared();
  EXPECT_EQ(again.owner(), framed.owner());
  EXPECT_EQ(again, abc) << "equal bytes in different buffers";
  EXPECT_NE(again.data(), abc.data());
}

TEST(SharedBytes, EncodesLikeBytes) {
  const Bytes raw = {1, 2, 3};
  Writer a;
  encode(a, raw);
  Writer b;
  encode(b, SharedBytes(raw));
  EXPECT_EQ(a.data(), b.data());
  Reader r(a.data());
  EXPECT_EQ(decode<SharedBytes>(r), SharedBytes(raw));
  EXPECT_NE(SharedBytes(raw), SharedBytes(Bytes{1, 2}));
  EXPECT_EQ(SharedBytes(), SharedBytes(Bytes{}));
}

TEST(Bloom, NoFalseNegatives) {
  BloomFilter f = BloomFilter::for_capacity(1000, 0.01);
  for (std::uint64_t k = 0; k < 1000; ++k) f.insert(k * 7919);
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(f.may_contain(k * 7919));
}

TEST(Bloom, FalsePositiveRateNearTarget) {
  BloomFilter f = BloomFilter::for_capacity(1000, 0.01);
  for (std::uint64_t k = 0; k < 1000; ++k) f.insert(k);
  int fp = 0;
  const int probes = 20'000;
  for (int i = 0; i < probes; ++i) {
    if (f.may_contain(1'000'000 + static_cast<std::uint64_t>(i))) ++fp;
  }
  const double rate = static_cast<double>(fp) / probes;
  EXPECT_LT(rate, 0.03) << "expected ~1% false positives, got " << rate;
}

TEST(Bloom, DisjointDetectsSharedElement) {
  BloomFilter a = BloomFilter::for_capacity(100, 0.01);
  BloomFilter b = BloomFilter::for_capacity(100, 0.01);
  a.insert(42);
  b.insert(42);
  EXPECT_FALSE(a.disjoint(b));
}

TEST(Bloom, DisjointOnEmpty) {
  BloomFilter a = BloomFilter::for_capacity(100, 0.01);
  BloomFilter b = BloomFilter::for_capacity(100, 0.01);
  a.insert(1);
  EXPECT_TRUE(a.disjoint(b));
  EXPECT_TRUE(b.disjoint(a));
}

TEST(Bloom, EncodeDecodeRoundTrip) {
  BloomFilter f = BloomFilter::for_capacity(50, 0.01);
  for (std::uint64_t k = 0; k < 50; ++k) f.insert(k * 3);
  Writer w;
  f.encode(w);
  Reader r(w.data());
  BloomFilter g = BloomFilter::decode(r);
  EXPECT_EQ(f, g);
}

TEST(KeySet, ExactIntersection) {
  KeySet a = KeySet::exact({1, 5, 9});
  KeySet b = KeySet::exact({2, 5, 8});
  KeySet c = KeySet::exact({3, 4});
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_FALSE(c.intersects(a));
}

TEST(KeySet, EmptyNeverIntersects) {
  KeySet e = KeySet::exact({});
  KeySet a = KeySet::exact({1, 2, 3});
  EXPECT_FALSE(e.intersects(a));
  EXPECT_FALSE(a.intersects(e));
  EXPECT_TRUE(e.empty());
}

TEST(KeySet, BloomVsExactMixedIntersection) {
  KeySet bloom = KeySet::bloom({10, 20, 30});
  KeySet hit = KeySet::exact({20});
  KeySet miss = KeySet::exact({999'999});
  EXPECT_TRUE(bloom.intersects(hit));
  EXPECT_TRUE(hit.intersects(bloom));
  EXPECT_FALSE(bloom.intersects(miss)) << "unlucky false positive (extremely improbable)";
}

TEST(KeySet, BloomVsBloomSharedElement) {
  KeySet a = KeySet::bloom({7, 8, 9}, 0.01);
  KeySet b = KeySet::bloom({9, 100, 200}, 0.01);
  EXPECT_TRUE(a.intersects(b));
}

TEST(KeySet, EncodeDecodePreservesMode) {
  KeySet exact = KeySet::exact({4, 2, 4, 1});
  Writer w;
  exact.encode(w);
  Reader r(w.data());
  KeySet decoded = KeySet::decode(r);
  EXPECT_FALSE(decoded.is_bloom());
  EXPECT_EQ(decoded.keys(), (std::vector<std::uint64_t>{1, 2, 4}));

  KeySet bloom = KeySet::bloom({1, 2, 3});
  Writer w2;
  bloom.encode(w2);
  Reader r2(w2.data());
  KeySet decoded2 = KeySet::decode(r2);
  EXPECT_TRUE(decoded2.is_bloom());
  EXPECT_TRUE(decoded2.may_contain(2));
}

TEST(KeySet, BloomSmallerOnWireForLargeSets) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 500; ++k) keys.push_back(k);
  Writer we, wb;
  KeySet::exact(keys).encode(we);
  KeySet::bloom(keys, 0.01).encode(wb);
  EXPECT_LT(wb.size(), we.size()) << "bloom mode should reduce wire size (Section V)";
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 1.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 50, 3);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 99, 4);
}

TEST(Histogram, BoundedRelativeError) {
  Histogram h;
  const std::int64_t value = 123'456;
  h.record(value);
  const std::int64_t p = h.percentile(100);
  EXPECT_NEAR(static_cast<double>(p), static_cast<double>(value), 0.02 * value);
}

TEST(Histogram, CdfIsMonotone) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) h.record(static_cast<std::int64_t>(rng.below(1'000'000)));
  auto cdf = h.cdf();
  ASSERT_FALSE(cdf.empty());
  double prev = 0;
  for (const auto& [v, frac] : cdf) {
    EXPECT_GE(frac, prev);
    prev = frac;
  }
  EXPECT_NEAR(cdf.back().second, 1.0, 1e-9);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Histogram a, b, all;
  for (int i = 0; i < 1000; ++i) {
    a.record(i);
    all.record(i);
  }
  for (int i = 5000; i < 6000; ++i) {
    b.record(i);
    all.record(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.percentile(99), all.percentile(99));
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
}

TEST(Histogram, MergeAcrossSubBucketBits) {
  // Merging histograms with different sub-bucket resolution re-records the
  // source's bucket midpoints: counts are preserved exactly, the mean only
  // within the coarser histogram's relative-error bound.
  Histogram coarse(4);
  Histogram fine(8);
  for (int i = 0; i < 1000; ++i) coarse.record(100 + i);
  for (int i = 0; i < 500; ++i) fine.record(50'000 + 10 * i);
  const std::uint64_t total = coarse.count() + fine.count();
  const double expected_mean =
      (coarse.mean() * static_cast<double>(coarse.count()) +
       fine.mean() * static_cast<double>(fine.count())) /
      static_cast<double>(total);
  coarse.merge(fine);
  EXPECT_EQ(coarse.count(), total);
  // 4 sub-bucket bits => buckets are ~1/16 wide, midpoints within ~3%.
  EXPECT_NEAR(coarse.mean(), expected_mean, expected_mean * 0.04);
  EXPECT_GE(coarse.percentile(100), fine.percentile(100) * 95 / 100);

  // Merging an empty histogram is a no-op.
  const std::uint64_t before = coarse.count();
  const double mean_before = coarse.mean();
  Histogram empty(10);
  coarse.merge(empty);
  EXPECT_EQ(coarse.count(), before);
  EXPECT_DOUBLE_EQ(coarse.mean(), mean_before);

  // Merging into an empty histogram transfers everything.
  Histogram sink(6);
  Histogram src(9);
  for (int i = 1; i <= 100; ++i) src.record(i * 7);
  sink.merge(src);
  EXPECT_EQ(sink.count(), src.count());
  EXPECT_NEAR(sink.mean(), src.mean(), src.mean() * 0.04);
}

TEST(Histogram, EmptyHistogramQueries) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(h.cdf().empty());
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.percentile(99), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, ZeroAndNegativeClamped) {
  Histogram h;
  h.record(0);
  h.record(-5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.percentile(100), 0);
}

TEST(Zipf, SkewsTowardLowRanks) {
  ZipfGenerator zipf(10'000, 0.99);
  Rng rng(1);
  std::uint64_t low = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (zipf.sample(rng) < 100) ++low;
  }
  // With theta=0.99 the first 100 of 10k ranks draw a large share.
  EXPECT_GT(static_cast<double>(low) / n, 0.3);
}

TEST(Zipf, UniformWhenThetaZero) {
  ZipfGenerator zipf(1000, 0.0);
  Rng rng(2);
  std::uint64_t low = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (zipf.sample(rng) < 100) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.1, 0.03);
}

TEST(Zipf, SamplesInRange) {
  ZipfGenerator zipf(50, 1.2);
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(zipf.sample(rng), 50u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(5), b(5);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fa.next(), fb.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(FormatHelpers, Format) {
  EXPECT_EQ(format_ms(32'600), "32.6");
  EXPECT_EQ(format_k(6'300), "6.3K");
  EXPECT_EQ(format_k(42), "42");
}

}  // namespace
}  // namespace sdur::util
