// Response-time composition for the paper's four schemes (Figures 4-6).
//
// Each scheme's response time =
//     measured CPU (serialize + deserialize + verify, run for real on this
//     machine) + netsim-modeled wire/disk time for the paper's testbeds.
//
// CPU phases are measured through the same library code the socket paths
// use; only the wire is swapped for the model, so the crossovers driven by
// computation (the paper's float<->ASCII argument) are real measurements.
#pragma once

#include <cstddef>

#include "bench/harness.hpp"
#include "netsim/netsim.hpp"
#include "services/verification.hpp"
#include "soap/encoding.hpp"
#include "workload/lead.hpp"
#include "xml/parser.hpp"
#include "xml/retype.hpp"
#include "xml/writer.hpp"

namespace bxsoap::bench {

/// Measured CPU seconds and byte counts for one unified-scheme exchange.
struct UnifiedCosts {
  double cpu_s = 0;          // all four codec phases + verification
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
};

/// The client's encode as SoapEngine runs it over a v1 TcpClientBinding:
/// an encoding that can borrow leaves the large arrays in the envelope for
/// the gathered send; returns the bytes it put in the buffer.
template <typename Encoding>
std::size_t client_encode(const Encoding& enc, const xdm::Document& doc) {
  ByteWriter w;
  if constexpr (soap::BorrowingEncoding<Encoding>) {
    std::vector<BorrowedRun> runs;
    enc.serialize_borrowed(doc, w, runs);
  } else {
    enc.serialize_into(doc, w);
  }
  return w.size();
}

/// Unified scheme with a static encoding policy (XmlEncoding/BxsaEncoding).
template <typename Encoding>
UnifiedCosts measure_unified(const workload::LeadDataset& dataset,
                             double min_time = 0.02) {
  Encoding enc;

  // Client: dataset -> bXDM -> envelope -> octets.
  soap::SoapEnvelope request =
      services::make_data_request(dataset);
  const auto request_bytes = enc.serialize(request.document());

  // Server: octets -> envelope -> verify the arrays in place -> response
  // octets (the path verification_handler runs).
  soap::SoapEnvelope response = services::make_verify_response(
      services::verify_dataset(dataset));
  const auto response_bytes = enc.serialize(response.document());

  UnifiedCosts c;
  c.request_bytes = request_bytes.size();
  c.response_bytes = response_bytes.size();

  const double t_client_ser = measure_seconds(
      [&] {
        soap::SoapEnvelope env = services::make_data_request(dataset);
        volatile std::size_t sink = client_encode(enc, env.document());
        (void)sink;
      },
      min_time);
  const double t_server = measure_seconds(
      [&] {
        soap::SoapEnvelope env(enc.deserialize(request_bytes));
        const auto outcome = services::verify_dataset(
            workload::lead_view(*env.body_payload()));
        volatile std::size_t sink =
            enc.serialize(services::make_verify_response(outcome).document())
                .size();
        (void)sink;
      },
      min_time);
  const double t_client_deser = measure_seconds(
      [&] {
        soap::SoapEnvelope env(enc.deserialize(response_bytes));
        volatile bool sink = services::parse_verify_response(env).ok;
        (void)sink;
      },
      min_time);

  c.cpu_s = t_client_ser + t_server + t_client_deser;
  return c;
}

/// Era-faithful unified XML: numbers formatted with snprintf("%.17g") the
/// way 2005 SOAP stacks did. Read side unchanged (the parse is typed either
/// way); this isolates the conversion cost the paper identifies.
UnifiedCosts measure_unified_xml_era(const workload::LeadDataset& dataset,
                                     double min_time = 0.02);

/// Separated scheme: measured netCDF + SOAP-control CPU plus byte counts;
/// wire/disk assembled by the caller from netsim.
struct SeparatedCosts {
  double cpu_s = 0;  // netCDF write/read + verification + SOAP control msgs
  std::size_t file_bytes = 0;
  std::size_t soap_request_bytes = 0;
  std::size_t soap_response_bytes = 0;
};

SeparatedCosts measure_separated(const workload::LeadDataset& dataset,
                                 double min_time = 0.02);

// ---- wire assembly -------------------------------------------------------------

inline double unified_tcp_time(const UnifiedCosts& c,
                               const netsim::LinkSpec& link) {
  // Persistent connection: steady-state exchange (the paper's TCP binding
  // "just dumps the serialization directly to a TCP connection").
  return c.cpu_s + netsim::request_response_time(link, c.request_bytes,
                                                 c.response_bytes);
}

inline double unified_http_time(const UnifiedCosts& c,
                                const netsim::LinkSpec& link) {
  return c.cpu_s +
         netsim::http_exchange_time(link, c.request_bytes, c.response_bytes);
}

inline double separated_http_time(const SeparatedCosts& c,
                                  const netsim::LinkSpec& link,
                                  const netsim::DiskSpec& disk) {
  // Client writes the netCDF file; SOAP control message round-trips; the
  // server GETs the file (one HTTP exchange), stores it, reads it back
  // (netCDF cannot parse from memory), verifies, responds.
  return c.cpu_s +
         netsim::disk_write_time(disk, c.file_bytes) +          // client save
         netsim::http_exchange_time(link, c.soap_request_bytes,
                                    c.soap_response_bytes) +    // control
         netsim::http_exchange_time(link, 160, c.file_bytes) +  // data pull
         netsim::disk_write_time(disk, c.file_bytes) +          // server save
         netsim::disk_read_time(disk, c.file_bytes);            // server read
}

inline double separated_gridftp_time(const SeparatedCosts& c,
                                     const netsim::LinkSpec& link,
                                     const netsim::DiskSpec& disk,
                                     int streams) {
  return c.cpu_s + netsim::disk_write_time(disk, c.file_bytes) +
         netsim::http_exchange_time(link, c.soap_request_bytes,
                                    c.soap_response_bytes) +
         netsim::gridftp_session_time(link, netsim::gsi_gridftp(),
                                      c.file_bytes, streams) +
         netsim::disk_write_time(disk, c.file_bytes) +
         netsim::disk_read_time(disk, c.file_bytes);
}

}  // namespace bxsoap::bench
