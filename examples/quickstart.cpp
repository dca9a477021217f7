// Quickstart: the 60-second tour of the library.
//
//  1. Build a typed bXDM document (the paper's extended XDM).
//  2. Serialize it as textual XML and as BXSA binary XML; compare sizes.
//  3. Transcode BXSA -> XML -> BXSA and check nothing was lost.
//  4. Run one SOAP request/response through the generic engine, with the
//     SAME application code under two different encoding policies.
#include <cstdio>
#include <thread>

#include "bxsa/bxsa.hpp"
#include "soap/soap.hpp"
#include "transport/inmemory.hpp"
#include "xdm/equal.hpp"
#include "xml/xml.hpp"

using namespace bxsoap;

namespace {

xdm::DocumentPtr build_document() {
  using namespace bxsoap::xdm;
  // <ws:observation xmlns:ws="urn:weather" station="KBMG">
  //   <ws:temperature xsi:type="xsd:double">287.65</ws:temperature>
  //   <ws:samples bx:arrayType="xsd:double">...</ws:samples>
  // </ws:observation>
  auto root = make_element(QName("urn:weather", "observation", "ws"));
  root->declare_namespace("ws", "urn:weather");
  root->add_attribute(QName("station"), std::string("KBMG"));
  root->add_child(
      make_leaf<double>(QName("urn:weather", "temperature", "ws"), 287.65));
  root->add_child(make_array<double>(
      QName("urn:weather", "samples", "ws"),
      {287.65, 287.7, 287.4, 286.95, 287.1, 287.55, 288.0, 287.8}));
  return make_document(std::move(root));
}

template <typename Encoding>
void soap_round_trip(const char* label) {
  using transport::InMemoryBinding;
  auto [client_end, server_end] = InMemoryBinding::make_pair();
  soap::SoapEngine<Encoding, InMemoryBinding> client({},
                                                     std::move(client_end));
  soap::SoapEngine<Encoding, InMemoryBinding> server({},
                                                     std::move(server_end));

  std::thread service([&server] {
    server.serve_once([](soap::SoapEnvelope request) {
      const auto* obs = request.body_payload();
      const auto* temp = static_cast<const xdm::Element*>(obs)->find_child(
          "temperature");
      const double kelvin =
          static_cast<const xdm::LeafElement<double>&>(*temp).get();
      auto reply = xdm::make_element(
          xdm::QName("urn:weather", "celsius", "ws"));
      reply->add_child(xdm::make_leaf<double>(
          xdm::QName("urn:weather", "value", "ws"), kelvin - 273.15));
      return soap::SoapEnvelope::wrap(std::move(reply));
    });
  });

  auto doc = build_document();
  soap::SoapEnvelope request = soap::SoapEnvelope::wrap(
      doc->root().clone());
  soap::SoapEnvelope response = client.call(std::move(request));
  service.join();

  const auto* celsius = static_cast<const xdm::Element*>(
      response.body_payload())->find_child("value");
  std::printf("  SOAP over %-12s -> %.2f degrees C\n", label,
              static_cast<const xdm::LeafElement<double>&>(*celsius).get());
}

}  // namespace

int main() {
  std::printf("== bxsoap quickstart ==\n\n");

  auto doc = build_document();

  // --- two serializations of one logical document -------------------------
  xml::WriteOptions typed;
  typed.emit_type_info = true;
  const std::string xml_text = xml::write_xml(*doc, typed);
  const auto bxsa_bytes = bxsa::encode(*doc);

  std::printf("one document, two wire forms:\n");
  std::printf("  textual XML : %5zu bytes\n", xml_text.size());
  std::printf("  BXSA binary : %5zu bytes\n", bxsa_bytes.size());

  // --- transcodability -----------------------------------------------------
  const std::string as_xml = bxsa::bxsa_to_xml(bxsa_bytes);
  const auto back = bxsa::xml_to_bxsa(as_xml);
  const auto reparsed = bxsa::decode(back);
  const bool lossless = xdm::deep_equal(*doc, *reparsed);
  std::printf("\ntranscode BXSA -> XML -> BXSA: %s\n",
              lossless ? "lossless" : "LOST DATA!");

  // --- the typed values never became text on the binary path ---------------
  bxsa::FrameScanner scanner(bxsa_bytes);
  const auto root_frame = scanner.first_child(scanner.frame_at(0));
  const auto samples = scanner.child(*root_frame, 1);
  const auto view = scanner.array_view(*samples);
  std::printf("zero-copy scan of the samples array: %zu x %s\n", view.count,
              std::string(xdm::atom_debug_name(view.type)).c_str());

  // --- the generic engine: same code, either encoding ----------------------
  std::printf("\ngeneric SOAP engine (policy chosen at compile time):\n");
  soap_round_trip<soap::XmlEncoding>("XML 1.0");
  soap_round_trip<soap::BxsaEncoding>("BXSA");

  if (!lossless) return 1;
  std::printf("\nok.\n");
  return 0;
}
