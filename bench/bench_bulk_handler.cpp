// Where the unified scheme's per-byte time goes on one bulk request.
//
// The request is perfbench's bulk_upload payload: a LEAD dataset of model
// size 349,440 (4 MiB of packed arrays) as BXSA. Each round times, in turn:
//
//   serialize       the client's contiguous encode, as the engine runs it
//                   on bindings without a gathered send: serialize_into a
//                   pooled buffer already big enough (so no regrowth), the
//                   arrays filled and copied in
//   serialize borrowed
//                   the same request encoded as TcpClientBinding sends it:
//                   serialize_borrowed, the arrays left in the envelope
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
//   read window     the reactor's receive bookkeeping for the request's
//                   payload: FrameAssembler::body_space()/commit() over the
//                   whole body in its 256 KiB windows, on the buffer the
//                   previous round's payload recycled into the pool (what
//                   the server pays besides recv() itself)
//
// Rounds interleave the stages so host noise hits all of them alike; the
// report is the median of each after warm-up rounds. The binary self-checks
// that every path returns the same outcome and bytes, that the handler
// costs at most 1.2x checksum-only on medians (one pass over memory), and
// that the borrowed encode costs at most 0.1x the contiguous one (framing
// only, no pass over the arrays), and exits nonzero otherwise. Registry
// snapshot: BENCH_bulk_handler.json.
//
//   bench_bulk_handler          # 41 rounds
//   bench_bulk_handler --short  # CI: 9 rounds
#include <algorithm>
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
#include "transport/framing.hpp"
#include "workload/lead.hpp"

namespace {

using namespace bxsoap;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBulkLeads = 349'440;  // perfbench bulk_upload
/// The event server's read-in-place window (kInPlaceRead).
constexpr std::size_t kWindowStep = 256u << 10;
constexpr int kWarmupRounds = 2;
constexpr double kGateRatio = 1.2;
constexpr double kBorrowGateRatio = 0.1;

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
  const soap::SoapEnvelope outgoing = services::make_data_request(dataset);
  const SharedBuffer wire =
      SharedBuffer::adopt(enc.serialize(outgoing.document()));
  const services::VerificationOutcome expected{
      true, kBulkLeads, workload::dataset_checksum(dataset)};
  // The frame header the reactor parses before the payload.
  ByteWriter header_writer;
  transport::write_header(header_writer, transport::kFrameVersion,
                          soap::BxsaEncoding::content_type());
  header_writer.write<std::uint64_t>(wire.bytes().size(), ByteOrder::kBig);
  const std::vector<std::uint8_t> header = header_writer.take();

  enum {
    kSerialize,
    kBorrowed,
    kDecode,
    kCopy,
    kTwoPass,
    kView,
    kChecksum,
    kHandler,
    kReadWindow
  };
  Stage stages[] = {
      {"serialize", "serialize", {}},
      {"serialize borrowed", "serialize_borrowed", {}},
      {"decode", "decode", {}},
      {"copy", "copy", {}},
      {"copy+two-pass", "copy_two_pass", {}},
      {"view verify", "view_verify", {}},
      {"checksum only", "checksum_only", {}},
      {"handler", "handler", {}},
      {"read window", "read_window", {}},
  };

  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  BufferPool pool;
  volatile std::uint64_t sink = 0;
  bool outcomes_agree = true;
  bool bytes_agree = true;
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

    // The payload's bytes are not copied in: recv() would write them; this
    // times what the assembler itself costs around it.
    transport::FrameAssembler assembler({}, &pool);
    assembler.feed(header);
    time_into(stages[kReadWindow], record, [&] {
      while (!assembler.ready()) {
        assembler.commit(assembler.body_space(kWindowStep).size());
      }
    });
    soap::WireMessage received = assembler.take();
    sink = sink + received.payload.size();
    pool.release(std::move(received.payload));

    // The client's encodes run last in the round, so the stages above see
    // the heap as they did before these two were added.
    std::vector<std::uint8_t> contiguous;
    time_into(stages[kSerialize], record, [&] {
      ByteWriter w(pool.acquire(wire.bytes().size()));
      enc.serialize_into(outgoing.document(), w);
      contiguous = w.take();
    });
    std::vector<std::uint8_t> framing;
    std::vector<BorrowedRun> runs;
    time_into(stages[kBorrowed], record, [&] {
      ByteWriter w(pool.acquire(256));
      enc.serialize_borrowed(outgoing.document(), w, runs);
      framing = w.take();
    });
    std::vector<std::uint8_t> joined;
    joined.reserve(contiguous.size());
    for_each_piece(framing, runs, [&](std::span<const std::uint8_t> piece) {
      joined.insert(joined.end(), piece.begin(), piece.end());
    });
    bytes_agree = bytes_agree && joined == contiguous &&
                  std::equal(contiguous.begin(), contiguous.end(),
                             wire.bytes().begin(), wire.bytes().end());
    pool.release(std::move(contiguous));
    pool.release(std::move(framing));

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
  const double borrow_ratio =
      median_us(stages[kBorrowed]) / median_us(stages[kSerialize]);
  registry.gauge("bulk_handler.model_size")
      .set(static_cast<std::int64_t>(kBulkLeads));
  registry.gauge("bulk_handler.request_bytes")
      .set(static_cast<std::int64_t>(wire.bytes().size()));
  registry.gauge("bulk_handler.handler_over_checksum_x1000")
      .set(static_cast<std::int64_t>(ratio * 1000.0));
  registry.gauge("bulk_handler.borrowed_over_serialize_x1000")
      .set(static_cast<std::int64_t>(borrow_ratio * 1000.0));
  std::printf("handler / checksum-only = %.3f\n", ratio);
  std::printf("serialize borrowed / serialize = %.4f\n", borrow_ratio);

  check(outcomes_agree,
        "two-pass, view verify, checksum and handler agree with the "
        "generator's outcome");
  char gate[96];
  std::snprintf(gate, sizeof(gate),
                "handler <= %.1fx checksum-only on medians (%.3f)", kGateRatio,
                ratio);
  check(ratio <= kGateRatio, gate);
  check(bytes_agree,
        "the borrowed encode's pieces joined equal the contiguous encode");
  std::snprintf(gate, sizeof(gate),
                "serialize borrowed <= %.1fx serialize on medians (%.4f)",
                kBorrowGateRatio, borrow_ratio);
  check(borrow_ratio <= kBorrowGateRatio, gate);

  const std::string path =
      bench::dump_registry_snapshot(registry, "bulk_handler");
  if (path.empty()) {
    std::fprintf(stderr, "could not write BENCH_bulk_handler.json\n");
  } else {
    std::printf("snapshot: %s\n", path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
