// The paper's experiment service (§6): the server receives atmospheric
// data — either inline in the SOAP message (unified scheme) or as a URL to
// pull from a data channel (separated scheme) — "verifies each value in the
// model, and sends the verification result back".
//
// Request payloads:
//   unified:    <lead:data>    (index/values arrays inline)
//   separated:  <lead:fetch channel="http"    url="http://127.0.0.1:p/f.nc"/>
//               <lead:fetch channel="gridftp" port="p" name="f.nc"
//                           streams="n"/>
// Response payload:
//   <lead:verifyResult ok="..." count="..." checksum="..."/>
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "soap/envelope.hpp"
#include "workload/lead.hpp"

namespace bxsoap::services {

struct VerificationOutcome {
  bool ok = false;
  std::size_t count = 0;
  std::uint64_t checksum = 0;

  friend bool operator==(const VerificationOutcome&,
                         const VerificationOutcome&) = default;
};

/// The actual verification, one pass over each array
/// (workload::scan_dataset): ok iff the index is the identity sequence and
/// every value v satisfies 150.0 <= v < 400.0 — so NaN and the infinities
/// fail. count is the model size; the checksum (workload::dataset_checksum)
/// lets the client confirm the server saw the exact bytes it sent.
VerificationOutcome verify_dataset(workload::LeadView d) noexcept;
inline VerificationOutcome verify_dataset(
    const workload::LeadDataset& d) noexcept {
  return verify_dataset(d.view());
}

// ---- request/response construction -------------------------------------------

/// Unified scheme: the dataset rides inside the SOAP body.
soap::SoapEnvelope make_data_request(const workload::LeadDataset& d);

/// Separated scheme, HTTP data channel.
soap::SoapEnvelope make_http_fetch_request(const std::string& url);

/// Separated scheme, GridFTP data channel.
soap::SoapEnvelope make_gridftp_fetch_request(std::uint16_t control_port,
                                              const std::string& name,
                                              int streams);

soap::SoapEnvelope make_verify_response(const VerificationOutcome& o);

/// Parse a verifyResult payload; throws DecodeError on shape mismatches and
/// SoapFaultError when the envelope is a fault.
VerificationOutcome parse_verify_response(const soap::SoapEnvelope& env);

// ---- server-side dispatch -----------------------------------------------------

/// The SOAP handler. Unified requests verify inline data straight off the
/// decoded tree (workload::lead_view: zero-copy arrays are read in the wire
/// buffer, never copied); fetch requests pull the netCDF file through the
/// channel named in the payload (http_fetch / gridftp_fetch) and verify
/// that. Malformed requests become soap:Client faults via exceptions.
soap::SoapEnvelope verification_handler(soap::SoapEnvelope request);

}  // namespace bxsoap::services
