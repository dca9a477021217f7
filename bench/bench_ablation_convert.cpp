// Ablation: WHERE does textual XML's cost come from?
//
// The paper (citing its HPDC'02 predecessor) claims "the conversion between
// the native floating-point number to their textual ones dominates the SOAP
// performance" — not the byte count. This bench isolates that claim:
//
//   * per-value: native memcpy vs to_chars (modern) vs snprintf (2005-era)
//     vs from_chars vs strtod;
//   * whole-message: BXSA encode vs XML serialize (both formatters) for the
//     paper's 1000-pair dataset, and the corresponding decode paths.
#include <benchmark/benchmark.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bxsa/decoder.hpp"
#include "bxsa/encoder.hpp"
#include "common/prng.hpp"
#include "workload/lead.hpp"
#include "xml/parser.hpp"
#include "xml/retype.hpp"
#include "xml/writer.hpp"

using namespace bxsoap;

namespace {

std::vector<double> sample_doubles(std::size_t n) {
  SplitMix64 rng(11);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.next_double(200, 320);
  return v;
}

void BM_DoubleNativeCopy(benchmark::State& state) {
  const auto values = sample_doubles(1024);
  std::vector<double> out(values.size());
  for (auto _ : state) {
    std::memcpy(out.data(), values.data(), values.size() * sizeof(double));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_DoubleNativeCopy);

void BM_DoubleToChars(benchmark::State& state) {
  const auto values = sample_doubles(1024);
  char buf[64];
  for (auto _ : state) {
    for (const double v : values) {
      auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
      benchmark::DoNotOptimize(p);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_DoubleToChars);

void BM_DoubleSnprintfEra(benchmark::State& state) {
  const auto values = sample_doubles(1024);
  char buf[64];
  for (auto _ : state) {
    for (const double v : values) {
      const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
      benchmark::DoNotOptimize(n);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_DoubleSnprintfEra);

void BM_DoubleFromChars(benchmark::State& state) {
  const auto values = sample_doubles(1024);
  std::vector<std::string> texts;
  for (const double v : values) {
    char buf[64];
    auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    texts.emplace_back(buf, p);
  }
  for (auto _ : state) {
    for (const auto& t : texts) {
      double v;
      auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
      benchmark::DoNotOptimize(v);
      benchmark::DoNotOptimize(p);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(texts.size()));
}
BENCHMARK(BM_DoubleFromChars);

void BM_DoubleStrtodEra(benchmark::State& state) {
  const auto values = sample_doubles(1024);
  std::vector<std::string> texts;
  for (const double v : values) {
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
    texts.emplace_back(buf, static_cast<std::size_t>(n));
  }
  for (auto _ : state) {
    for (const auto& t : texts) {
      char* end = nullptr;
      const double v = std::strtod(t.c_str(), &end);
      benchmark::DoNotOptimize(v);
      benchmark::DoNotOptimize(end);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(texts.size()));
}
BENCHMARK(BM_DoubleStrtodEra);

// ---- whole-message comparison (the paper's 1000-pair dataset) ------------------

void BM_Encode1000_Bxsa(benchmark::State& state) {
  const auto payload = workload::to_bxdm(workload::make_lead_dataset(1000));
  for (auto _ : state) {
    auto bytes = bxsa::encode(*payload);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_Encode1000_Bxsa);

void BM_Encode1000_Xml(benchmark::State& state) {
  const auto payload = workload::to_bxdm(workload::make_lead_dataset(1000));
  xml::WriteOptions opt;
  for (auto _ : state) {
    std::string text = xml::write_xml(*payload, opt);
    benchmark::DoNotOptimize(text.data());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_Encode1000_Xml);

void BM_Encode1000_XmlEra(benchmark::State& state) {
  const auto payload = workload::to_bxdm(workload::make_lead_dataset(1000));
  xml::WriteOptions opt;
  opt.era_number_formatting = true;
  for (auto _ : state) {
    std::string text = xml::write_xml(*payload, opt);
    benchmark::DoNotOptimize(text.data());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_Encode1000_XmlEra);

void BM_Decode1000_Bxsa(benchmark::State& state) {
  const auto payload = workload::to_bxdm(workload::make_lead_dataset(1000));
  const auto bytes = bxsa::encode(*payload);
  for (auto _ : state) {
    auto node = bxsa::decode(bytes);
    benchmark::DoNotOptimize(node.get());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_Decode1000_Bxsa);

// The decode XmlEncoding runs: one pass, items parsed straight into the
// packed arrays.
void BM_Decode1000_Xml(benchmark::State& state) {
  const auto payload = workload::to_bxdm(workload::make_lead_dataset(1000));
  const std::string text = xml::write_xml(*payload, {});
  for (auto _ : state) {
    auto doc = xml::parse_typed_xml(text);
    benchmark::DoNotOptimize(doc.get());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_Decode1000_Xml);

// The same decode in two passes, an untyped DOM and then a typed copy (the
// retype oracle): the difference to BM_Decode1000_Xml is tree building,
// not number conversion.
void BM_Decode1000_XmlTwoPass(benchmark::State& state) {
  const auto payload = workload::to_bxdm(workload::make_lead_dataset(1000));
  const std::string text = xml::write_xml(*payload, {});
  for (auto _ : state) {
    auto doc = xml::retype(*xml::parse_xml(text));
    benchmark::DoNotOptimize(doc.get());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_Decode1000_XmlTwoPass);

}  // namespace

BENCHMARK_MAIN();
