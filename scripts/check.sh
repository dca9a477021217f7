#!/usr/bin/env bash
# Tier-1 gate: build + full test suite, then the same suite under
# AddressSanitizer + UBSan (the asan-ubsan preset in CMakePresets.json).
#
#   scripts/check.sh          # default build + tests + ASan/UBSan run
#   scripts/check.sh --fast   # default build + tests only
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

echo "== configure + build (default preset) =="
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"

echo "== ctest (default preset) =="
ctest --preset default -j "$jobs"

echo "== streaming residency gate (256 MiB echo, bounded memory) =="
# The full-size acceptance check for the chunked path: stream 256 MiB
# through the event server and hold the stream.buffered_bytes waterline to
# at most two chunks (the test asserts peak <= 2 * chunk_size <= 8 MiB).
(cd build && BXSOAP_STREAM_MIB=256 \
  ctest -R 'StreamingResidency\.' --output-on-failure)

if [[ "${1:-}" == "--fast" ]]; then
  echo "check.sh: fast mode, skipping sanitizer pass"
  exit 0
fi

echo "== configure + build (asan-ubsan preset) =="
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$jobs"

echo "== ctest (asan-ubsan preset) =="
ctest --preset asan-ubsan -j "$jobs"

echo "== chaos suite (asan-ubsan, -L chaos) =="
# The seeded mutation + fault-injection matrices, run explicitly under the
# sanitizers: every mutant must die with a typed error, never a report.
(cd build-asan && ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1" \
  UBSAN_OPTIONS="print_stacktrace=1" \
  ctest -L chaos --output-on-failure -j "$jobs")

echo "== configure + build (tsan preset) =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs" \
  --target test_common test_transport test_soap test_chaos

echo "== ctest (tsan: buffer pool + event server + streaming) =="
# The concurrency-heavy surfaces under ThreadSanitizer: the BufferPool /
# SharedBuffer recycling machinery (including the per-thread cache churn
# test), the sharded epoll reactors, their worker pool and their
# cross-reactor handoffs (EventServer, EventShard), the client channel
# pool, the chunked streaming path (push-style stream callbacks on the
# reactor and worker legs, the read tap that bounds their residency, the
# thread-count check with 64 open streams, and its truncation chaos), the
# overload-control surfaces
# (admission/shed/park state shared between reactors and workers, the
# ReliableCaller retry budget and circuit breaker, deadline propagation
# into handler threads), the engine chaos matrix against a live server,
# the BXTP v3 surfaces (per-connection dictionary state vs reactor/worker
# handoffs, the sharded response cache hammered from pooled channels, the
# negotiation matrix and the over-grant clamp), the
# negotiated-compression surfaces (per-connection transform state read by
# reactor and worker threads, shared CompressStats counters, the chunk
# compress/decompress paths in the server and the channel pool), and the
# streaming-security surfaces (per-stream authenticators handed between
# reactor and worker threads, shared AuthStats counters, signed-stream
# round trips and the corruption chaos matrix), and the differential of
# the two chunk-stream writers (server stream sink vs ChunkedFrameWriter,
# byte for byte under every negotiation) and the whole pipelined stream
# sessions captured raw, the pool's bounded class reach on a steady bulk
# exchange, and the bulk path's copy-free
# halves (the engine's borrowed encode against the contiguous one, the
# N-buffer gathered send resuming after interrupted partial writes, reads
# into recycled pool buffers that are never zero-filled, and the client
# pool's conservation over gathered bulk calls). Every server-side suite
# runs on both dispatch legs: a worker pool and inline on the reactors.
(cd build-tsan && TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest -R 'BufferPool\.|SharedBuffer\.|ServerConfig|EventServer|EventShard|ChannelPool|Streaming|StreamChaos|EngineChaos|Overload|ExpiredDrop|DeadlineContext|ReliableCaller|RespCache|V3Negotiation|V3Matrix|V3OverGrant|DictChannel|V3Chaos|CompressChannel|CompressChaos|Shuffle|SignedStream|ChunkStreamDiff|ChunkStreamSession|PoolReach|BorrowedEncode|WriteVectored|ReadInPlace|GatherSend' \
  --output-on-failure -j "$jobs")

echo "== overload chaos gate (tsan, retry storms + saturated sheds) =="
# The retry-storm and saturation chaos matrix specifically under TSan:
# many clients sharing one OverloadControl against a shedding server is
# the densest lock/atomic interleaving in the codebase.
(cd build-tsan && TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest -R 'OverloadChaos' --output-on-failure -j "$jobs")

echo "== bench_concurrency (short mode, smoke, 2 reactor shards) =="
# The concurrency bench doubles as an end-to-end smoke of both dispatch
# modes under load; short mode keeps it CI-sized, and pinning two
# reactors exercises the cross-reactor handoff path even on one core.
# Run from build/ so the BENCH_*.json snapshot lands out of the tree.
(cd build && ./bench/bench_concurrency --short --reactors 2 >/dev/null)

echo "== bench_overload (short mode, overload acceptance gate) =="
# The overload ladder self-checks the DESIGN.md §12 acceptance criteria
# (queue bound held, overflow shed with retryable faults, bounded p99 of
# accepted work, zero expired requests entering a handler) and exits
# nonzero on violation — so this smoke IS the acceptance gate.
(cd build && ./bench/bench_overload --short)

echo "== bench_smallmsg (short mode, BXTP v3 acceptance gate) =="
# The small-message ladder self-checks the DESIGN.md §13 acceptance
# criteria (>= 30% fewer steady-state wire bytes/call on a dictionary
# channel, throughput preserved with the full v3 stack, cache hits
# faster than re-encode) and exits nonzero on violation.
(cd build && ./bench/bench_smallmsg --short)

echo "== bench_compression_wan (short mode, compression acceptance gate) =="
# The compression ladder self-checks the DESIGN.md §14 acceptance criteria
# (>= 1.5x modeled-WAN goodput for smooth float64 under shuffle+delta+lzss,
# incompressible payloads shipped plain with <= 3% probe overhead, every
# compressed body byte-identical on decode) and exits nonzero on violation.
(cd build && ./bench/bench_compression_wan --short)

echo "== bench_streaming (short mode, streaming-security acceptance gate) =="
# The streaming ladder self-checks the DESIGN.md §15 acceptance criteria
# (signed goodput >= 80% of unsigned and signed TTFB within 2x on the
# paper's modeled LAN, buffered waterline <= 2 chunks on the signed leg)
# and exits nonzero on violation.
(cd build && ./bench/bench_streaming --short)

echo "check.sh: all green"
