#include "bench/scheme_costs.hpp"

#include "netcdf/netcdf.hpp"

namespace bxsoap::bench {

UnifiedCosts measure_unified_xml_era(const workload::LeadDataset& dataset,
                                     double min_time) {
  xml::WriteOptions era;
  era.emit_type_info = true;
  era.era_number_formatting = true;

  soap::SoapEnvelope request = services::make_data_request(dataset);
  const std::string request_text = xml::write_xml(request.document(), era);
  soap::SoapEnvelope response = services::make_verify_response(
      services::verify_dataset(dataset));
  const std::string response_text = xml::write_xml(response.document(), era);

  UnifiedCosts c;
  c.request_bytes = request_text.size();
  c.response_bytes = response_text.size();

  const double t_client_ser = measure_seconds(
      [&] {
        soap::SoapEnvelope env = services::make_data_request(dataset);
        volatile std::size_t sink =
            xml::write_xml(env.document(), era).size();
        (void)sink;
      },
      min_time);
  const double t_server = measure_seconds(
      [&] {
        xml::RetypeOptions era_parse;
        era_parse.era_number_parsing = true;
        soap::SoapEnvelope env(
            xml::retype(*xml::parse_xml(request_text), era_parse));
        const auto outcome = services::verify_dataset(
            workload::lead_view(*env.body_payload()));
        volatile std::size_t sink =
            xml::write_xml(services::make_verify_response(outcome).document(),
                           era)
                .size();
        (void)sink;
      },
      min_time);
  const double t_client_deser = measure_seconds(
      [&] {
        xml::RetypeOptions era_parse;
        era_parse.era_number_parsing = true;
        soap::SoapEnvelope env(
            xml::retype(*xml::parse_xml(response_text), era_parse));
        volatile bool sink = services::parse_verify_response(env).ok;
        (void)sink;
      },
      min_time);

  c.cpu_s = t_client_ser + t_server + t_client_deser;
  return c;
}

SeparatedCosts measure_separated(const workload::LeadDataset& dataset,
                                 double min_time) {
  soap::XmlEncoding enc;

  const auto file_bytes = workload::to_netcdf(dataset).to_bytes();
  soap::SoapEnvelope request =
      services::make_http_fetch_request("http://127.0.0.1:1/d.nc");
  const auto soap_req = enc.serialize(request.document());
  soap::SoapEnvelope response = services::make_verify_response(
      services::verify_dataset(dataset));
  const auto soap_resp = enc.serialize(response.document());

  SeparatedCosts c;
  c.file_bytes = file_bytes.size();
  c.soap_request_bytes = soap_req.size();
  c.soap_response_bytes = soap_resp.size();

  // Client side: serialize the netCDF file + the control message.
  const double t_client = measure_seconds(
      [&] {
        volatile std::size_t sink =
            workload::to_netcdf(dataset).to_bytes().size();
        soap::SoapEnvelope env =
            services::make_http_fetch_request("http://127.0.0.1:1/d.nc");
        volatile std::size_t sink2 = enc.serialize(env.document()).size();
        (void)sink;
        (void)sink2;
      },
      min_time);
  // Server side: parse control, parse netCDF, verify, respond.
  const double t_server = measure_seconds(
      [&] {
        soap::SoapEnvelope env(enc.deserialize(soap_req));
        const auto file = netcdf::NcFile::from_bytes(file_bytes);
        const auto d = workload::from_netcdf(file);
        const auto outcome = services::verify_dataset(d);
        volatile std::size_t sink =
            enc.serialize(services::make_verify_response(outcome).document())
                .size();
        (void)sink;
      },
      min_time);
  const double t_client_deser = measure_seconds(
      [&] {
        soap::SoapEnvelope env(enc.deserialize(soap_resp));
        volatile bool sink = services::parse_verify_response(env).ok;
        (void)sink;
      },
      min_time);

  c.cpu_s = t_client + t_server + t_client_deser;
  return c;
}

}  // namespace bxsoap::bench
