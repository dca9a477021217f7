// Where the unified-scheme server's time goes on one bulk request.
//
// The request is perfbench's bulk_upload payload: a LEAD dataset of model
// size 349,440 (4 MiB of packed arrays) as BXSA. Each round times, in turn:
//
//   decode          deserialize_shared of the wire buffer (zero-copy arrays)
//   copy            workload::from_bxdm — the arrays copied out of the views
//                   into owned vectors (allocation and release included)
//   copy+two-pass   the handler's former path: copy, checksum, then a second
//                   pass for the index and range checks
//   view verify     services::verify_dataset(workload::lead_view(payload)):
//                   one fused pass over the arrays in the wire buffer
//   checksum only   workload::dataset_checksum over the views — the serial
//                   multiply chain every verification must pay, the floor
//   handler         services::verification_handler on a decoded request,
//                   response construction included
//   zero-fill       a 4 MiB read-in-place window grown in 256 KiB resize
//                   steps on a recycled buffer — the fill the reactor's
//                   FrameAssembler::body_space() pays before recv() writes
//
// Rounds interleave the stages so host noise hits all of them alike; the
// report is the median of each after warm-up rounds. The binary self-checks
// that every path returns the same outcome and that the handler costs at
// most 1.2x checksum-only on medians (one pass over memory), and exits
// nonzero otherwise. Registry snapshot: BENCH_bulk_handler.json.
//
//   bench_bulk_handler          # 41 rounds
//   bench_bulk_handler --short  # CI: 9 rounds
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/buffer_pool.hpp"
#include "services/verification.hpp"
#include "soap/encoding.hpp"
#include "workload/lead.hpp"

namespace {

using namespace bxsoap;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBulkLeads = 349'440;  // perfbench bulk_upload
constexpr std::size_t kWindow = 4u << 20;
constexpr std::size_t kWindowStep = 256u << 10;
constexpr int kWarmupRounds = 2;
constexpr double kGateRatio = 1.2;

/// The handler's verification before it was fused: checksum over an owned
/// copy, then a second pass for the checks (the range rule as it stands).
services::VerificationOutcome verify_two_pass(const workload::LeadDataset& d) {
  services::VerificationOutcome o;
  o.count = d.model_size();
  o.checksum = workload::dataset_checksum(d);
  o.ok = true;
  for (std::size_t i = 0; i < d.model_size(); ++i) {
    const double v = d.values[i];
    if (d.index[i] != static_cast<std::int32_t>(i) ||
        !(v >= workload::kMinReading && v < workload::kMaxReading)) {
      o.ok = false;
      break;
    }
  }
  return o;
}

struct Stage {
  const char* name;
  const char* metric;
  bench::LatencySamples samples;
};

template <typename Op>
void time_into(Stage& s, bool record, Op&& op) {
  const auto t0 = Clock::now();
  op();
  const auto t1 = Clock::now();
  if (record) s.samples.record(t1 - t0);
}

double median_us(const Stage& s) {
  return static_cast<double>(s.samples.percentile_ns(50)) / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else {
      std::fprintf(stderr, "bench_bulk_handler: unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }
  const int rounds = short_mode ? 9 : 41;

  const workload::LeadDataset dataset = workload::make_lead_dataset(kBulkLeads);
  const soap::BxsaEncoding enc;
  const SharedBuffer wire = SharedBuffer::adopt(
      enc.serialize(services::make_data_request(dataset).document()));
  const services::VerificationOutcome expected{
      true, kBulkLeads, workload::dataset_checksum(dataset)};

  enum { kDecode, kCopy, kTwoPass, kView, kChecksum, kHandler, kZeroFill };
  Stage stages[] = {
      {"decode", "decode", {}},
      {"copy", "copy", {}},
      {"copy+two-pass", "copy_two_pass", {}},
      {"view verify", "view_verify", {}},
      {"checksum only", "checksum_only", {}},
      {"handler", "handler", {}},
      {"zero-fill", "zero_fill", {}},
  };

  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  std::vector<std::uint8_t> window;
  window.reserve(kWindow);
  volatile std::uint64_t sink = 0;
  bool outcomes_agree = true;
  for (int r = 0; r < kWarmupRounds + rounds; ++r) {
    const bool record = r >= kWarmupRounds;

    soap::SoapEnvelope request;
    time_into(stages[kDecode], record, [&] {
      request = soap::SoapEnvelope(enc.deserialize_shared(wire));
    });
    const xdm::ElementBase& payload = *request.body_payload();

    time_into(stages[kCopy], record, [&] {
      sink = sink + workload::from_bxdm(payload).values.size();
    });

    services::VerificationOutcome two_pass;
    time_into(stages[kTwoPass], record, [&] {
      two_pass = verify_two_pass(workload::from_bxdm(payload));
    });

    services::VerificationOutcome fused;
    time_into(stages[kView], record, [&] {
      fused = services::verify_dataset(workload::lead_view(payload));
    });

    std::uint64_t checksum = 0;
    time_into(stages[kChecksum], record, [&] {
      checksum = workload::dataset_checksum(workload::lead_view(payload));
    });

    soap::SoapEnvelope response;
    time_into(stages[kHandler], record, [&] {
      response = services::verification_handler(std::move(request));
    });
    const services::VerificationOutcome handled =
        services::parse_verify_response(response);

    time_into(stages[kZeroFill], record, [&] {
      window.clear();
      for (std::size_t end = kWindowStep; end <= kWindow; end += kWindowStep) {
        window.resize(end);
      }
    });
    sink = sink + window[kWindow - 1];

    outcomes_agree = outcomes_agree && two_pass == expected &&
                     fused == expected && handled == expected &&
                     checksum == expected.checksum;
  }
  (void)sink;

  obs::Registry registry;
  bench::Table table({"stage", "median us", "min us", "max us"}, 16);
  std::printf(
      "bench_bulk_handler: model size %zu, %zu-byte BXSA request, median of "
      "%d rounds%s\n",
      kBulkLeads, wire.bytes().size(), rounds,
      short_mode ? " (short mode)" : "");
  table.print_header();
  for (const Stage& s : stages) {
    table.cell(s.name);
    table.cell(median_us(s), "%.1f");
    table.cell(static_cast<double>(s.samples.min_ns()) / 1e3, "%.1f");
    table.cell(static_cast<double>(s.samples.max_ns()) / 1e3, "%.1f");
    table.end_row();
    s.samples.publish(registry, std::string("bulk_handler.") + s.metric);
  }

  const double ratio = median_us(stages[kHandler]) / median_us(stages[kChecksum]);
  registry.gauge("bulk_handler.model_size")
      .set(static_cast<std::int64_t>(kBulkLeads));
  registry.gauge("bulk_handler.request_bytes")
      .set(static_cast<std::int64_t>(wire.bytes().size()));
  registry.gauge("bulk_handler.handler_over_checksum_x1000")
      .set(static_cast<std::int64_t>(ratio * 1000.0));
  std::printf("handler / checksum-only = %.3f\n", ratio);

  check(outcomes_agree,
        "two-pass, view verify, checksum and handler agree with the "
        "generator's outcome");
  char gate[96];
  std::snprintf(gate, sizeof(gate),
                "handler <= %.1fx checksum-only on medians (%.3f)", kGateRatio,
                ratio);
  check(ratio <= kGateRatio, gate);

  const std::string path =
      bench::dump_registry_snapshot(registry, "bulk_handler");
  if (path.empty()) {
    std::fprintf(stderr, "could not write BENCH_bulk_handler.json\n");
  } else {
    std::printf("snapshot: %s\n", path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
