#include "workload/lead.hpp"

#include <bit>
#include <cmath>

#include "common/prng.hpp"
#include "xdm/qname.hpp"

namespace bxsoap::workload {

using namespace bxsoap::xdm;

namespace {
constexpr std::string_view kLeadUri = "urn:lead";

QName lead_name(std::string_view local) {
  return QName(std::string(kLeadUri), std::string(local), "lead");
}
}  // namespace

LeadDataset make_lead_dataset(std::size_t model_size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  LeadDataset d;
  d.index.resize(model_size);
  d.values.resize(model_size);
  for (std::size_t i = 0; i < model_size; ++i) {
    d.index[i] = static_cast<std::int32_t>(i);
    // Temperature-like readings in [200, 320) K, quantized to 0.01 so the
    // textual form is 5-6 characters (comparable to the LEAD sample).
    const double raw = rng.next_double(200.0, 320.0);
    d.values[i] = std::round(raw * 100.0) / 100.0;
  }
  return d;
}

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// Positive doubles order like their bit patterns read as unsigned integers;
// negative values (sign bit set), infinities and NaNs (all-ones exponent)
// land above bits(kMaxReading). So kMinReading <= v < kMaxReading, NaN
// excluded, is one unsigned subtract-and-compare on bits(v).
constexpr std::uint64_t kReadingLo = std::bit_cast<std::uint64_t>(kMinReading);
constexpr std::uint64_t kReadingSpan =
    std::bit_cast<std::uint64_t>(kMaxReading) - kReadingLo;

// The checksum's serial multiply chain over each array once; with kCheck
// the plausibility checks ride along in the same loops.
template <bool kCheck>
LeadScan scan(LeadView d) noexcept {
  std::uint64_t h = kFnvBasis ^ d.model_size();
  std::uint32_t index_diff = 0;
  for (std::size_t i = 0; i < d.index.size(); ++i) {
    const auto item = static_cast<std::uint32_t>(d.index[i]);
    h = (h ^ item) * kFnvPrime;
    if constexpr (kCheck) index_diff |= item ^ static_cast<std::uint32_t>(i);
  }
  bool implausible = false;
  for (const double v : d.values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    h = (h ^ bits) * kFnvPrime;
    if constexpr (kCheck) implausible |= bits - kReadingLo >= kReadingSpan;
  }
  return {h, index_diff == 0 && !implausible &&
                 d.index.size() == d.values.size()};
}

}  // namespace

std::uint64_t dataset_checksum(LeadView d) noexcept {
  return scan<false>(d).checksum;
}

LeadScan scan_dataset(LeadView d) noexcept { return scan<true>(d); }

NodePtr to_bxdm(const LeadDataset& d) {
  auto root = make_element(lead_name("data"));
  root->declare_namespace("lead", std::string(kLeadUri));
  root->add_child(make_array<std::int32_t>(lead_name("index"), d.index));
  root->add_child(make_array<double>(lead_name("values"), d.values));
  return root;
}

LeadView lead_view(const ElementBase& payload) {
  if (payload.kind() != NodeKind::kElement) {
    throw DecodeError("lead payload must be a component element");
  }
  const auto& root = static_cast<const Element&>(payload);
  const ElementBase* index = root.find_child("index");
  const ElementBase* values = root.find_child("values");
  if (index == nullptr || values == nullptr) {
    throw DecodeError("lead payload missing index/values arrays");
  }
  const auto* idx = dynamic_cast<const ArrayElement<std::int32_t>*>(index);
  const auto* val = dynamic_cast<const ArrayElement<double>*>(values);
  if (idx == nullptr || val == nullptr) {
    throw DecodeError("lead payload arrays have wrong item types");
  }
  if (idx->count() != val->count()) {
    throw DecodeError("lead payload arrays differ in length");
  }
  return {idx->view(), val->view()};
}

LeadDataset from_bxdm(const ElementBase& payload) {
  const LeadView v = lead_view(payload);
  return {{v.index.begin(), v.index.end()}, {v.values.begin(), v.values.end()}};
}

netcdf::NcFile to_netcdf(const LeadDataset& d) {
  netcdf::NcFile file;
  const std::uint32_t dim = file.add_dimension(
      "model", static_cast<std::uint32_t>(d.model_size()));
  file.global_attributes().push_back(
      {"title", std::string("LEAD-like atmospheric sample")});
  netcdf::Variable& idx =
      file.add_variable("index", netcdf::NcType::kInt, {dim});
  idx.set_values(d.index);
  netcdf::Variable& val =
      file.add_variable("values", netcdf::NcType::kDouble, {dim});
  val.attributes().push_back({"units", std::string("kelvin")});
  val.set_values(d.values);
  return file;
}

LeadDataset from_netcdf(const netcdf::NcFile& file) {
  const netcdf::Variable* idx = file.find_variable("index");
  const netcdf::Variable* val = file.find_variable("values");
  if (idx == nullptr || val == nullptr) {
    throw DecodeError("netcdf file missing index/values variables");
  }
  LeadDataset d;
  d.index = idx->values<std::int32_t>();
  d.values = val->values<double>();
  if (d.index.size() != d.values.size()) {
    throw DecodeError("netcdf variables differ in length");
  }
  return d;
}

void write_netcdf_file(const LeadDataset& d,
                       const std::filesystem::path& path) {
  to_netcdf(d).write_file(path);
}

LeadDataset read_netcdf_file(const std::filesystem::path& path) {
  return from_netcdf(netcdf::NcFile::read_file(path));
}

std::vector<std::size_t> figure56_model_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1365; n <= 5591040; n *= 4) {
    sizes.push_back(n);
  }
  return sizes;
}

// ---- GridDataset ----------------------------------------------------------------

GridDataset make_grid_dataset(std::uint32_t time, std::uint32_t y,
                              std::uint32_t x, std::uint32_t height,
                              std::uint64_t seed) {
  GridDataset d;
  d.time = time;
  d.y = y;
  d.x = x;
  d.height = height;
  const std::size_t n = d.cell_count();
  d.index.resize(n);
  d.values.resize(n);
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    d.index[i] = static_cast<std::int32_t>(i);
    d.values[i] = std::round(rng.next_double(200.0, 320.0) * 100.0) / 100.0;
  }
  return d;
}

netcdf::NcFile grid_to_netcdf(const GridDataset& d) {
  netcdf::NcFile file;
  const std::uint32_t dt = file.add_dimension("time", d.time);
  const std::uint32_t dy = file.add_dimension("y", d.y);
  const std::uint32_t dx = file.add_dimension("x", d.x);
  const std::uint32_t dh = file.add_dimension("height", d.height);
  const std::vector<std::uint32_t> dims{dt, dy, dx, dh};
  file.global_attributes().push_back(
      {"title", std::string("LEAD-like 4-D atmospheric grid")});
  file.add_variable("index", netcdf::NcType::kInt, dims)
      .set_values(d.index);
  netcdf::Variable& vals =
      file.add_variable("values", netcdf::NcType::kDouble, dims);
  vals.attributes().push_back({"units", std::string("kelvin")});
  vals.set_values(d.values);
  return file;
}

GridDataset grid_from_netcdf(const netcdf::NcFile& file) {
  GridDataset d;
  auto dim_of = [&file](std::string_view name) -> std::uint32_t {
    for (const auto& dim : file.dimensions()) {
      if (dim.name == name) return dim.length;
    }
    throw DecodeError("grid netcdf missing dimension '" + std::string(name) +
                      "'");
  };
  d.time = dim_of("time");
  d.y = dim_of("y");
  d.x = dim_of("x");
  d.height = dim_of("height");
  const netcdf::Variable* idx = file.find_variable("index");
  const netcdf::Variable* val = file.find_variable("values");
  if (idx == nullptr || val == nullptr) {
    throw DecodeError("grid netcdf missing index/values variables");
  }
  d.index = idx->values<std::int32_t>();
  d.values = val->values<double>();
  if (d.index.size() != d.cell_count() ||
      d.values.size() != d.cell_count()) {
    throw DecodeError("grid netcdf variable lengths disagree with shape");
  }
  return d;
}

xdm::NodePtr grid_to_bxdm(const GridDataset& d) {
  auto root = make_element(lead_name("grid"));
  root->declare_namespace("lead", std::string(kLeadUri));
  root->add_attribute(QName("time"), d.time);
  root->add_attribute(QName("y"), d.y);
  root->add_attribute(QName("x"), d.x);
  root->add_attribute(QName("height"), d.height);
  root->add_child(make_array<std::int32_t>(lead_name("index"), d.index));
  root->add_child(make_array<double>(lead_name("values"), d.values));
  return root;
}

GridDataset grid_from_bxdm(const xdm::ElementBase& payload) {
  if (payload.kind() != NodeKind::kElement ||
      payload.name().local != "grid") {
    throw DecodeError("expected a lead:grid payload");
  }
  auto dim = [&payload](std::string_view name) -> std::uint32_t {
    const Attribute* a = payload.find_attribute(name);
    if (a == nullptr) {
      throw DecodeError("grid payload missing @" + std::string(name));
    }
    return scalar_get<std::uint32_t>(
        parse_scalar(AtomType::kUInt32, a->text()));
  };
  GridDataset d;
  d.time = dim("time");
  d.y = dim("y");
  d.x = dim("x");
  d.height = dim("height");
  const auto& root = static_cast<const Element&>(payload);
  const auto* idx = dynamic_cast<const ArrayElement<std::int32_t>*>(
      root.find_child("index"));
  const auto* val =
      dynamic_cast<const ArrayElement<double>*>(root.find_child("values"));
  if (idx == nullptr || val == nullptr) {
    throw DecodeError("grid payload arrays missing or mistyped");
  }
  d.index.assign(idx->view().begin(), idx->view().end());
  d.values.assign(val->view().begin(), val->view().end());
  if (d.index.size() != d.cell_count() ||
      d.values.size() != d.cell_count()) {
    throw DecodeError("grid payload lengths disagree with shape");
  }
  return d;
}

LeadDataset flatten(const GridDataset& d) {
  LeadDataset flat;
  flat.index = d.index;
  flat.values = d.values;
  return flat;
}

}  // namespace bxsoap::workload
