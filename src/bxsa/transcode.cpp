#include "bxsa/transcode.hpp"

#include "bxsa/decoder.hpp"
#include "bxsa/encoder.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace bxsoap::bxsa {

std::string bxsa_to_xml(std::span<const std::uint8_t> bxsa_bytes) {
  const xdm::NodePtr node = decode(bxsa_bytes);
  xml::WriteOptions opt;
  opt.emit_type_info = true;
  return xml::write_xml(*node, opt);
}

std::vector<std::uint8_t> xml_to_bxsa(std::string_view xml_text,
                                      ByteOrder order) {
  const xdm::DocumentPtr typed = xml::parse_typed_xml(xml_text);
  EncodeOptions opt;
  opt.order = order;
  return encode(*typed, opt);
}

}  // namespace bxsoap::bxsa
