#include "services/verification.hpp"

#include <fstream>

#include "gridftp/gridftp.hpp"
#include "netcdf/netcdf.hpp"
#include "transport/file_server.hpp"

namespace bxsoap::services {

using namespace bxsoap::xdm;
using soap::SoapEnvelope;
using workload::LeadDataset;

namespace {

constexpr std::string_view kLeadUri = "urn:lead";

QName lead_name(std::string_view local) {
  return QName(std::string(kLeadUri), std::string(local), "lead");
}

}  // namespace

VerificationOutcome verify_dataset(workload::LeadView d) noexcept {
  const workload::LeadScan scan = workload::scan_dataset(d);
  return {scan.plausible, d.model_size(), scan.checksum};
}

SoapEnvelope make_data_request(const LeadDataset& d) {
  return SoapEnvelope::wrap(workload::to_bxdm(d));
}

SoapEnvelope make_http_fetch_request(const std::string& url) {
  auto payload = make_element(lead_name("fetch"));
  payload->declare_namespace("lead", std::string(kLeadUri));
  payload->add_attribute(QName("channel"), std::string("http"));
  payload->add_attribute(QName("url"), url);
  return SoapEnvelope::wrap(std::move(payload));
}

SoapEnvelope make_gridftp_fetch_request(std::uint16_t control_port,
                                        const std::string& name,
                                        int streams) {
  auto payload = make_element(lead_name("fetch"));
  payload->declare_namespace("lead", std::string(kLeadUri));
  payload->add_attribute(QName("channel"), std::string("gridftp"));
  payload->add_attribute(QName("port"),
                         static_cast<std::int32_t>(control_port));
  payload->add_attribute(QName("name"), name);
  payload->add_attribute(QName("streams"), static_cast<std::int32_t>(streams));
  return SoapEnvelope::wrap(std::move(payload));
}

SoapEnvelope make_verify_response(const VerificationOutcome& o) {
  auto payload = make_element(lead_name("verifyResult"));
  payload->declare_namespace("lead", std::string(kLeadUri));
  payload->add_attribute(QName("ok"), o.ok);
  payload->add_attribute(QName("count"),
                         static_cast<std::uint64_t>(o.count));
  payload->add_attribute(QName("checksum"), o.checksum);
  return SoapEnvelope::wrap(std::move(payload));
}

VerificationOutcome parse_verify_response(const SoapEnvelope& env) {
  env.throw_if_fault();
  const ElementBase* payload = env.body_payload();
  if (payload == nullptr || payload->name().local != "verifyResult") {
    throw DecodeError("expected a verifyResult payload");
  }
  const Attribute* ok = payload->find_attribute("ok");
  const Attribute* count = payload->find_attribute("count");
  const Attribute* checksum = payload->find_attribute("checksum");
  if (ok == nullptr || count == nullptr || checksum == nullptr) {
    throw DecodeError("verifyResult missing attributes");
  }
  VerificationOutcome o;
  o.ok = scalar_get<bool>(parse_scalar(AtomType::kBool, ok->text()));
  o.count = static_cast<std::size_t>(
      scalar_get<std::uint64_t>(parse_scalar(AtomType::kUInt64, count->text())));
  o.checksum = scalar_get<std::uint64_t>(
      parse_scalar(AtomType::kUInt64, checksum->text()));
  return o;
}

SoapEnvelope verification_handler(SoapEnvelope request) {
  const ElementBase* payload = request.body_payload();
  if (payload == nullptr) {
    throw SoapFaultError("soap:Client", "empty request body");
  }

  if (payload->name().local == "data") {
    return make_verify_response(verify_dataset(workload::lead_view(*payload)));
  }

  if (payload->name().local == "fetch") {
    const Attribute* channel = payload->find_attribute("channel");
    if (channel == nullptr) {
      throw SoapFaultError("soap:Client", "fetch without a channel");
    }
    std::vector<std::uint8_t> file_bytes;
    if (channel->text() == "http") {
      const Attribute* url = payload->find_attribute("url");
      if (url == nullptr) {
        throw SoapFaultError("soap:Client", "http fetch without url");
      }
      file_bytes = transport::http_fetch(url->text());
    } else if (channel->text() == "gridftp") {
      const Attribute* port = payload->find_attribute("port");
      const Attribute* name = payload->find_attribute("name");
      const Attribute* streams = payload->find_attribute("streams");
      if (port == nullptr || name == nullptr || streams == nullptr) {
        throw SoapFaultError("soap:Client", "gridftp fetch missing fields");
      }
      gridftp::ClientOptions opt;
      opt.streams = static_cast<int>(scalar_get<std::int32_t>(
          parse_scalar(AtomType::kInt32, streams->text())));
      const auto port_v = scalar_get<std::int32_t>(
          parse_scalar(AtomType::kInt32, port->text()));
      file_bytes = gridftp::gridftp_fetch(
          static_cast<std::uint16_t>(port_v), name->text(), opt);
    } else {
      throw SoapFaultError("soap:Client",
                           "unknown data channel '" + channel->text() + "'");
    }
    // The netCDF library cannot read from memory (a limitation the paper
    // calls out as part of the separated scheme's cost), so the fetched
    // bytes take a detour through the filesystem, exactly as the paper's
    // server did.
    const auto tmp =
        std::filesystem::temp_directory_path() /
        ("bxsoap_fetch_" + std::to_string(
                               reinterpret_cast<std::uintptr_t>(&file_bytes)) +
         ".nc");
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(file_bytes.data()),
                static_cast<std::streamsize>(file_bytes.size()));
    }
    LeadDataset d;
    try {
      d = workload::read_netcdf_file(tmp);
    } catch (...) {
      std::filesystem::remove(tmp);
      throw;
    }
    std::filesystem::remove(tmp);
    return make_verify_response(verify_dataset(d));
  }

  throw SoapFaultError("soap:Client",
                       "unknown request '" + payload->name().local + "'");
}

}  // namespace bxsoap::services
