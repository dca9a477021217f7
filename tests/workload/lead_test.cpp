#include "workload/lead.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <unistd.h>

#include "bxsa/decoder.hpp"
#include "bxsa/encoder.hpp"
#include "common/prng.hpp"
#include "xml/writer.hpp"

namespace bxsoap::workload {
namespace {

TEST(LeadDataset, GeneratorIsDeterministic) {
  const LeadDataset a = make_lead_dataset(100, 7);
  const LeadDataset b = make_lead_dataset(100, 7);
  const LeadDataset c = make_lead_dataset(100, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.values, c.values);
}

TEST(LeadDataset, ShapeMatchesThePaper) {
  const LeadDataset d = make_lead_dataset(1000);
  EXPECT_EQ(d.model_size(), 1000u);
  EXPECT_EQ(d.native_bytes(), 12000u) << "1000 * (4 + 8)";
  for (std::size_t i = 0; i < d.model_size(); ++i) {
    EXPECT_EQ(d.index[i], static_cast<std::int32_t>(i));
    EXPECT_GE(d.values[i], 200.0);
    EXPECT_LT(d.values[i], 320.0);
  }
}

TEST(LeadDataset, ChecksumDetectsChanges) {
  LeadDataset d = make_lead_dataset(50);
  const std::uint64_t base = dataset_checksum(d);
  d.values[10] += 0.01;
  EXPECT_NE(dataset_checksum(d), base);
}

TEST(LeadDataset, ChecksumGoldenValues) {
  // The checksum is part of the wire contract: every client checks the
  // server's verifyResult against it. These bits must never move.
  EXPECT_EQ(dataset_checksum(LeadDataset{}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(dataset_checksum(make_lead_dataset(7)), 0xd30bdc5ada1a729eULL);
  EXPECT_EQ(dataset_checksum(make_lead_dataset(1000)), 0x651533b653a8c542ULL);
  EXPECT_EQ(dataset_checksum(make_lead_dataset(349440)),
            0x874c8390480b9055ULL)
      << "the bulk_upload model size";
}

TEST(LeadDataset, BxdmRoundTrip) {
  const LeadDataset d = make_lead_dataset(128);
  const xdm::NodePtr payload = to_bxdm(d);
  const LeadDataset back =
      from_bxdm(static_cast<const xdm::ElementBase&>(*payload));
  EXPECT_EQ(d, back);
}

TEST(LeadDataset, FromBxdmRejectsWrongShapes) {
  auto wrong = xdm::make_element(xdm::QName("data"));
  EXPECT_THROW(from_bxdm(*wrong), DecodeError);

  auto mismatched = xdm::make_element(xdm::QName("data"));
  mismatched->add_child(
      xdm::make_array<std::int32_t>(xdm::QName("index"), {1, 2}));
  mismatched->add_child(
      xdm::make_array<double>(xdm::QName("values"), {1.0}));
  EXPECT_THROW(from_bxdm(*mismatched), DecodeError);
}

TEST(LeadDataset, LeadViewRejectsWrongShapes) {
  auto wrong = xdm::make_element(xdm::QName("data"));
  EXPECT_THROW(lead_view(*wrong), DecodeError);

  auto mismatched = xdm::make_element(xdm::QName("data"));
  mismatched->add_child(
      xdm::make_array<std::int32_t>(xdm::QName("index"), {1, 2}));
  mismatched->add_child(
      xdm::make_array<double>(xdm::QName("values"), {1.0}));
  EXPECT_THROW(lead_view(*mismatched), DecodeError);

  auto leaf = xdm::make_array<double>(xdm::QName("data"), {1.0});
  EXPECT_THROW(lead_view(*leaf), DecodeError);

  auto mistyped = xdm::make_element(xdm::QName("data"));
  mistyped->add_child(xdm::make_array<double>(xdm::QName("index"), {0.0}));
  mistyped->add_child(xdm::make_array<double>(xdm::QName("values"), {1.0}));
  EXPECT_THROW(lead_view(*mistyped), DecodeError);
}

TEST(LeadDataset, ScanIsTheChecksumPlusTheChecks) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{7}, std::size_t{1000}}) {
    LeadDataset d = make_lead_dataset(n);
    const LeadScan clean = scan_dataset(d.view());
    EXPECT_EQ(clean.checksum, dataset_checksum(d));
    EXPECT_TRUE(clean.plausible);
    if (n == 0) continue;
    d.index[n - 1] = -7;
    const LeadScan bad = scan_dataset(d.view());
    EXPECT_EQ(bad.checksum, dataset_checksum(d));
    EXPECT_FALSE(bad.plausible);
  }
}

// scan_dataset tests readings on their bit patterns; it must agree with
// the plain comparison for every kind of double.
TEST(LeadDataset, ScanRangeCheckMatchesTheComparison) {
  auto literal = [](double v) { return v >= kMinReading && v < kMaxReading; };
  std::vector<double> probes = {
      0.0, -0.0, 1.0, -1.0, 149.0, 150.0, 200.0, 399.0, 400.0, 401.0, -200.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN()};
  for (const double edge : {kMinReading, kMaxReading, -kMinReading}) {
    probes.push_back(std::nextafter(edge, -1e300));
    probes.push_back(std::nextafter(edge, 1e300));
  }
  SplitMix64 rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng.next();
    probes.push_back(std::bit_cast<double>(bits));
    probes.push_back(rng.next_double(100.0, 450.0));
  }
  const std::int32_t index[] = {0};
  for (const double v : probes) {
    const double values[] = {v};
    EXPECT_EQ(scan_dataset({index, values}).plausible, literal(v))
        << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(LeadDataset, NetcdfRoundTrip) {
  const LeadDataset d = make_lead_dataset(333);
  const LeadDataset back = from_netcdf(to_netcdf(d));
  EXPECT_EQ(d, back);
}

TEST(LeadDataset, NetcdfFileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() /
      ("bxsoap_lead_test_" + std::to_string(::getpid()) + ".nc");
  const LeadDataset d = make_lead_dataset(64);
  write_netcdf_file(d, path);
  EXPECT_EQ(read_netcdf_file(path), d);
  std::filesystem::remove(path);
}

TEST(LeadDataset, Figure56SizesMatchThePaper) {
  const auto sizes = figure56_model_sizes();
  ASSERT_EQ(sizes.size(), 7u);
  EXPECT_EQ(sizes.front(), 1365u);
  EXPECT_EQ(sizes[1], 5460u);
  EXPECT_EQ(sizes.back(), 5591040u);
  // BXSA size bounds from the paper: 16 KB to 64 MB.
  EXPECT_NEAR(static_cast<double>(sizes.front()) * 12, 16384, 1000);
  EXPECT_NEAR(static_cast<double>(sizes.back()) * 12, 64.0 * 1024 * 1024,
              1.0e6);
}

TEST(GridDataset, ShapeAndOffsets) {
  const GridDataset g = make_grid_dataset(2, 3, 4, 5);
  EXPECT_EQ(g.cell_count(), 120u);
  EXPECT_EQ(g.index.size(), 120u);
  EXPECT_EQ(g.offset(0, 0, 0, 0), 0u);
  EXPECT_EQ(g.offset(0, 0, 0, 4), 4u);
  EXPECT_EQ(g.offset(0, 0, 1, 0), 5u);
  EXPECT_EQ(g.offset(1, 2, 3, 4), 119u);
  // The index array is the identity over the flattened order.
  EXPECT_EQ(g.index[g.offset(1, 0, 2, 3)],
            static_cast<std::int32_t>(g.offset(1, 0, 2, 3)));
}

TEST(GridDataset, NetcdfRoundTripKeepsFourDimensions) {
  const GridDataset g = make_grid_dataset(3, 4, 5, 2);
  const auto file = grid_to_netcdf(g);
  ASSERT_EQ(file.dimensions().size(), 4u);
  EXPECT_EQ(file.dimensions()[0].name, "time");
  EXPECT_EQ(file.find_variable("values")->dim_ids().size(), 4u);

  const GridDataset back =
      grid_from_netcdf(netcdf::NcFile::from_bytes(file.to_bytes()));
  EXPECT_EQ(back, g);
}

TEST(GridDataset, BxdmRoundTripThroughBxsa) {
  const GridDataset g = make_grid_dataset(2, 2, 3, 3);
  const auto payload = grid_to_bxdm(g);
  const auto bytes = bxsa::encode(*payload);
  const auto back_node = bxsa::decode(bytes);
  const GridDataset back =
      grid_from_bxdm(static_cast<const xdm::ElementBase&>(*back_node));
  EXPECT_EQ(back, g);
}

TEST(GridDataset, FlattenMatchesLeadShape) {
  const GridDataset g = make_grid_dataset(2, 3, 2, 2);
  const LeadDataset flat = flatten(g);
  EXPECT_EQ(flat.model_size(), g.cell_count());
  EXPECT_EQ(flat.index, g.index);
  EXPECT_EQ(flat.values, g.values);
}

TEST(GridDataset, ShapeMismatchRejected) {
  GridDataset g = make_grid_dataset(2, 2, 2, 2);
  g.values.pop_back();
  auto file_ok = grid_to_netcdf(make_grid_dataset(2, 2, 2, 2));
  // Tamper with a dimension so lengths disagree.
  auto payload = grid_to_bxdm(make_grid_dataset(2, 2, 2, 2));
  auto* el = static_cast<xdm::Element*>(payload.get());
  el->attributes()[0].value = std::uint32_t{9};
  EXPECT_THROW(grid_from_bxdm(*el), DecodeError);
}

TEST(LeadDataset, SerializationSizesReproduceTable1Shape) {
  // Table 1 at model size 1000: native 12000 B, BXSA +1.3%, netCDF +2.2%,
  // XML +99.1%. We require the ordering and the rough magnitudes.
  const LeadDataset d = make_lead_dataset(1000);
  const auto payload = to_bxdm(d);

  const auto bxsa_bytes = bxsa::encode(*payload);
  const auto nc_bytes = to_netcdf(d).to_bytes();
  xml::WriteOptions plain;
  plain.emit_type_info = false;
  const std::string xml_text = xml::write_xml(*payload, plain);

  const double native = 12000.0;
  const double bxsa_over = (bxsa_bytes.size() - native) / native;
  const double nc_over = (nc_bytes.size() - native) / native;
  const double xml_over = (xml_text.size() - native) / native;

  EXPECT_LT(bxsa_over, 0.02) << "paper: 1.3%";
  EXPECT_LT(nc_over, 0.03) << "paper: 2.2%";
  EXPECT_GT(xml_over, 0.7) << "paper: 99.1%";
  EXPECT_LT(xml_over, 1.4);
  EXPECT_LT(bxsa_over, nc_over) << "BXSA is the leanest binary form";
}

}  // namespace
}  // namespace bxsoap::workload
