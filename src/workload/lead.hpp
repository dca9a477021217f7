// The paper's experimental data set (§6): "derived from a sample file used
// for [the] LEAD project ... consists of two equal-size arrays:
//   * an array of 4-byte integers as the index and
//   * an array of double-precision, 8-byte floating point numbers to
//     represent the dimension values."
// The array length is the experiment's MODEL SIZE.
//
// Our synthetic stand-in: sequential indices and atmospheric-looking values
// (temperatures in Kelvin, two decimals). The value distribution matters
// only for the XML size row of Table 1 — two-decimal readings give text
// lengths comparable to the paper's real LEAD sample, which reported a
// 99.1% XML size overhead at model size 1000.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "netcdf/netcdf.hpp"
#include "xdm/node.hpp"

namespace bxsoap::workload {

/// The two arrays of a LEAD dataset wherever they live: a LeadDataset's
/// vectors, or a decoded payload's ArrayElement<T>::view() — then valid
/// only while that payload (and the wire buffer it pins) lives.
struct LeadView {
  std::span<const std::int32_t> index;
  std::span<const double> values;

  std::size_t model_size() const noexcept { return index.size(); }
};

struct LeadDataset {
  std::vector<std::int32_t> index;
  std::vector<double> values;

  std::size_t model_size() const noexcept { return index.size(); }
  /// Bytes of the native representation: model_size * (4 + 8).
  std::size_t native_bytes() const noexcept { return index.size() * 12; }
  LeadView view() const noexcept { return {index, values}; }

  friend bool operator==(const LeadDataset& a,
                         const LeadDataset& b) = default;
};

/// Deterministic generator (same seed, same data on every platform).
LeadDataset make_lead_dataset(std::size_t model_size,
                              std::uint64_t seed = 2006);

/// Order-sensitive checksum used by the verification service: a serial
/// FNV-style xor-multiply chain seeded with the model size, over every
/// index item, then every value's bits. Clients check the server's reply against it, so its bits
/// are part of the wire contract.
std::uint64_t dataset_checksum(LeadView d) noexcept;
inline std::uint64_t dataset_checksum(const LeadDataset& d) noexcept {
  return dataset_checksum(d.view());
}

/// The instrument's plausible readings, in kelvin: [kMinReading,
/// kMaxReading). NaN is never plausible.
inline constexpr double kMinReading = 150.0;
inline constexpr double kMaxReading = 400.0;

struct LeadScan {
  std::uint64_t checksum = 0;
  /// Index is the identity sequence, every value v has kMinReading <= v <
  /// kMaxReading (so no NaN or infinity), and the arrays have equal
  /// lengths.
  bool plausible = false;
};

/// dataset_checksum and the plausibility checks in one pass over each
/// array: the checks ride in the ALU slots the checksum's multiply chain
/// leaves idle, and accumulate without branching.
LeadScan scan_dataset(LeadView d) noexcept;

/// bXDM payload element:
///   <lead:data xmlns:lead="urn:lead"><lead:index .../><lead:values .../>
xdm::NodePtr to_bxdm(const LeadDataset& d);

/// The arrays of a to_bxdm-shaped payload, in place (zero-copy views stay
/// views). The one shape check of a lead:data payload: throws DecodeError
/// unless it is a component element with an int `index` array and a double
/// `values` array of equal length.
LeadView lead_view(const xdm::ElementBase& payload);

/// Inverse of to_bxdm: lead_view plus a copy into owned vectors.
LeadDataset from_bxdm(const xdm::ElementBase& payload);

/// netCDF classic form: dimension "model", variables "index" (int) and
/// "values" (double) — the separated scheme's file format.
netcdf::NcFile to_netcdf(const LeadDataset& d);
LeadDataset from_netcdf(const netcdf::NcFile& file);

void write_netcdf_file(const LeadDataset& d,
                       const std::filesystem::path& path);
LeadDataset read_netcdf_file(const std::filesystem::path& path);

/// The model sizes swept by Figures 5/6: 1365 quadrupling to 5591040
/// ("the corresponding BXSA serialization size is from 16K bytes to 64M").
std::vector<std::size_t> figure56_model_sizes();

// ---- the full 4-D shape ---------------------------------------------------------
//
// The paper describes the LEAD sample as atmospheric information that
// "depends on four parameters, namely time, y, x and height"; the
// experiments flatten it to the two arrays above. GridDataset keeps the
// 4-D structure so the netCDF substrate is exercised the way a real LEAD
// file would: four dimensions and 4-D variables.

struct GridDataset {
  std::uint32_t time = 0, y = 0, x = 0, height = 0;  // dimension lengths
  // Flattened in C order (time-major): index [t][yy][xx][h].
  std::vector<std::int32_t> index;
  std::vector<double> values;

  std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(time) * y * x * height;
  }
  /// Linear offset of one grid cell.
  std::size_t offset(std::uint32_t t, std::uint32_t yy, std::uint32_t xx,
                     std::uint32_t h) const noexcept {
    return ((static_cast<std::size_t>(t) * y + yy) * x + xx) * height + h;
  }

  friend bool operator==(const GridDataset&, const GridDataset&) = default;
};

GridDataset make_grid_dataset(std::uint32_t time, std::uint32_t y,
                              std::uint32_t x, std::uint32_t height,
                              std::uint64_t seed = 2006);

/// netCDF form with the four real dimensions and two 4-D variables.
netcdf::NcFile grid_to_netcdf(const GridDataset& d);
GridDataset grid_from_netcdf(const netcdf::NcFile& file);

/// bXDM form: the grid shape travels as typed attributes on the payload
/// element; the data as packed arrays (flattened, like the wire always is).
xdm::NodePtr grid_to_bxdm(const GridDataset& d);
GridDataset grid_from_bxdm(const xdm::ElementBase& payload);

/// Drop the shape: the flat view the paper's experiments verify.
LeadDataset flatten(const GridDataset& d);

}  // namespace bxsoap::workload
