// Component microbenchmarks (google-benchmark): the hot paths of the
// library — certification, bloom filters, the multiversion store, the
// wire codec and the latency histogram.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "sdur/certifier.h"
#include "storage/mvstore.h"
#include "util/bloom.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace sdur;

PartTx bench_tx(TxId id, Key k1, Key k2, Version snapshot, bool global) {
  PartTx t;
  t.id = id;
  t.involved = global ? std::vector<PartitionId>{0, 1} : std::vector<PartitionId>{0};
  t.snapshot = snapshot;
  t.readset = util::KeySet::exact({k1, k2});
  t.write_keys = util::KeySet::exact({k1, k2});
  t.writes = {{k1, "valu"}, {k2, "valu"}};
  return t;
}

void BM_CertifierProcessCommit(benchmark::State& state) {
  Certifier cert(100'000);
  util::Rng rng(1);
  std::uint64_t dc = 0;
  TxId id = 1;
  for (auto _ : state) {
    ++dc;
    const Key k1 = rng.below(1'000'000);
    const Key k2 = rng.below(1'000'000);
    auto r = cert.process(bench_tx(id++, k1, k2, cert.stable(), false), dc, dc);
    benchmark::DoNotOptimize(r);
    if (!cert.empty()) cert.resolve(cert.pop_head(), true);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CertifierProcessCommit);

void BM_CertifierScanDepth(benchmark::State& state) {
  // Certification cost as a function of how stale the snapshot is (scan
  // depth through the committed window).
  const auto depth = static_cast<Version>(state.range(0));
  Certifier cert(100'000);
  util::Rng rng(1);
  std::uint64_t dc = 0;
  for (Version v = 0; v < depth + 8; ++v) {
    ++dc;
    cert.process(bench_tx(1000 + static_cast<TxId>(v), rng.below(1'000'000),
                          rng.below(1'000'000), cert.stable(), false),
                 dc, dc);
    cert.resolve(cert.pop_head(), true);
  }
  TxId id = 1;
  for (auto _ : state) {
    ++dc;
    const Version snapshot = cert.stable() - depth;
    auto r = cert.process(bench_tx(id++, rng.below(1'000'000), rng.below(1'000'000),
                                   snapshot, false),
                          dc, dc);
    benchmark::DoNotOptimize(r);
    if (!cert.empty()) cert.resolve(cert.pop_head(), true);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CertifierScanDepth)->Arg(8)->Arg(64)->Arg(512);

void BM_BloomInsertQuery(benchmark::State& state) {
  util::BloomFilter f = util::BloomFilter::for_capacity(1024, 0.01);
  util::Rng rng(2);
  for (auto _ : state) {
    const std::uint64_t k = rng.next();
    f.insert(k);
    benchmark::DoNotOptimize(f.may_contain(k + 1));
    if (f.count() > 1024) f.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsertQuery);

void BM_KeySetIntersectExact(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<std::uint64_t> a, b;
  for (int i = 0; i < 64; ++i) {
    a.push_back(rng.next());
    b.push_back(rng.next());
  }
  const auto sa = util::KeySet::exact(a);
  const auto sb = util::KeySet::exact(b);
  for (auto _ : state) benchmark::DoNotOptimize(sa.intersects(sb));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeySetIntersectExact);

void BM_MVStoreSnapshotRead(benchmark::State& state) {
  storage::MVStore store;
  util::Rng rng(4);
  for (Key k = 0; k < 100'000; ++k) store.load(k, "init");
  for (Version v = 1; v <= 50'000; ++v) store.put(rng.below(100'000), "upd", v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get(rng.below(100'000), 25'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MVStoreSnapshotRead);

// A get() that misses the own layer and hits the shared initial image:
// a replica's read of a key no transaction has written yet. The own layer
// holds 50K versions over the lower half of the keys; reads draw from the
// upper half.
void BM_MVStoreImageRead(benchmark::State& state) {
  auto image = std::make_shared<storage::MVStore>();
  for (Key k = 0; k < 100'000; ++k) image->load(k, "init");
  storage::MVStore store(image);
  util::Rng rng(4);
  for (Version v = 1; v <= 50'000; ++v) store.put(rng.below(50'000), "upd", v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get(50'000 + rng.below(50'000), 25'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MVStoreImageRead);

// Initial population as a deployment runs it at start-up, once per
// partition into the image its replicas share: 100K keys of 64 B into a
// fresh store, one load() per key (no reserve), the store's own growth
// included.
void BM_MVStoreLoad(benchmark::State& state) {
  constexpr Key kKeys = 100'000;
  const std::string value(64, 'x');
  for (auto _ : state) {
    storage::MVStore store;
    for (Key k = 0; k < kKeys; ++k) store.load(k, value);
    benchmark::DoNotOptimize(store.key_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_MVStoreLoad)->Unit(benchmark::kMillisecond);

void BM_PartTxCodec(benchmark::State& state) {
  const PartTx t = bench_tx(42, 1, 2, 100, true);
  for (auto _ : state) {
    const auto bytes = t.encode();
    benchmark::DoNotOptimize(PartTx::decode(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartTxCodec);

void BM_HistogramRecord(benchmark::State& state) {
  util::Histogram h;
  util::Rng rng(5);
  for (auto _ : state) h.record(static_cast<std::int64_t>(rng.below(1'000'000)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace

BENCHMARK_MAIN();
