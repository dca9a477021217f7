// Differential coverage for the unified-scheme handler: the outcome
// verification_handler sends back, and verify_dataset over the payload's
// arrays in place (lead_view), must equal verify_dataset over an owned copy
// of the payload (from_bxdm), for a corpus of corrupted datasets and for
// the three ways a payload reaches the handler — a zero-copy BXSA decode,
// owned arrays, and an XML decode. Malformed payloads must keep their exact
// DecodeError.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/buffer_pool.hpp"
#include "services/verification.hpp"
#include "soap/encoding.hpp"

namespace bxsoap::services {
namespace {

using soap::SoapEnvelope;
using workload::LeadDataset;

struct Corruption {
  std::string name;
  std::function<void(LeadDataset&)> apply;
};

std::vector<Corruption> corruption_corpus(std::size_t n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t mid = n / 2;
  const std::size_t last = n - 1;
  std::vector<Corruption> c;
  c.push_back({"none", [](LeadDataset&) {}});
  for (const std::size_t at : {std::size_t{0}, mid, last}) {
    const std::string where = "@" + std::to_string(at);
    c.push_back({"index+1" + where, [at](LeadDataset& d) { d.index[at] += 1; }});
    c.push_back({"index=-1" + where, [at](LeadDataset& d) { d.index[at] = -1; }});
    for (const double v : {1000.0, -5.0, 149.99, 400.0, 150.0, 399.99}) {
      c.push_back({"value=" + std::to_string(v) + where,
                   [at, v](LeadDataset& d) { d.values[at] = v; }});
    }
    for (const double v : {nan, inf, -inf}) {
      c.push_back({"value=" + std::to_string(v) + where,
                   [at, v](LeadDataset& d) { d.values[at] = v; }});
    }
  }
  c.push_back({"index-swap", [mid, last](LeadDataset& d) {
                 std::swap(d.index[mid], d.index[last]);
               }});
  return c;
}

/// The three payload origins the handler sees.
enum class Origin { kBxsaZeroCopy, kOwned, kXml };

const char* origin_name(Origin o) {
  switch (o) {
    case Origin::kBxsaZeroCopy: return "bxsa-zero-copy";
    case Origin::kOwned: return "owned";
    case Origin::kXml: return "xml";
  }
  return "?";
}

SoapEnvelope request_from(Origin origin, const LeadDataset& d) {
  SoapEnvelope owned = make_data_request(d);
  switch (origin) {
    case Origin::kOwned:
      return owned;
    case Origin::kBxsaZeroCopy: {
      const soap::BxsaEncoding enc;
      const SharedBuffer wire =
          SharedBuffer::adopt(enc.serialize(owned.document()));
      return SoapEnvelope(enc.deserialize_shared(wire));
    }
    case Origin::kXml: {
      const soap::XmlEncoding enc;
      return SoapEnvelope(enc.deserialize(enc.serialize(owned.document())));
    }
  }
  return owned;
}

/// True when both arrays of a lead:data payload are wire-buffer views.
bool arrays_are_views(const xdm::ElementBase& payload) {
  const auto& root = static_cast<const xdm::Element&>(payload);
  const auto* idx = dynamic_cast<const xdm::ArrayElement<std::int32_t>*>(
      root.find_child("index"));
  const auto* val =
      dynamic_cast<const xdm::ArrayElement<double>*>(root.find_child("values"));
  return idx != nullptr && val != nullptr && idx->is_view() && val->is_view();
}

class HandlerDiff : public ::testing::TestWithParam<Origin> {};

TEST_P(HandlerDiff, HandlerOutcomeEqualsOwnedCopyOverCorruptions) {
  const Origin origin = GetParam();
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{257}}) {
    for (const Corruption& c : corruption_corpus(n)) {
      SCOPED_TRACE(std::string(origin_name(origin)) + " n=" +
                   std::to_string(n) + " " + c.name);
      LeadDataset d = workload::make_lead_dataset(n, 11);
      c.apply(d);
      SoapEnvelope request = request_from(origin, d);
      const xdm::ElementBase* payload = request.body_payload();
      ASSERT_NE(payload, nullptr);
      if (origin == Origin::kBxsaZeroCopy) {
        EXPECT_TRUE(arrays_are_views(*payload));
      }
      const VerificationOutcome copied =
          verify_dataset(workload::from_bxdm(*payload));
      EXPECT_EQ(copied.count, n);
      EXPECT_EQ(verify_dataset(workload::lead_view(*payload)), copied);
      const VerificationOutcome handled = parse_verify_response(
          verification_handler(std::move(request)));
      EXPECT_EQ(handled, copied);
      if (c.name == "none") {
        EXPECT_TRUE(handled.ok);
        EXPECT_EQ(handled.checksum, workload::dataset_checksum(d));
      }
    }
  }
}

TEST_P(HandlerDiff, LeadViewReadsTheArraysInPlace) {
  SoapEnvelope request =
      request_from(GetParam(), workload::make_lead_dataset(64));
  const xdm::ElementBase& payload = *request.body_payload();
  const auto& root = static_cast<const xdm::Element&>(payload);
  const auto& idx = dynamic_cast<const xdm::ArrayElement<std::int32_t>&>(
      *root.find_child("index"));
  const auto& val =
      dynamic_cast<const xdm::ArrayElement<double>&>(*root.find_child("values"));
  const workload::LeadView v = workload::lead_view(payload);
  EXPECT_EQ(v.index.data(), idx.view().data());
  EXPECT_EQ(v.values.data(), val.view().data());
  EXPECT_EQ(v.model_size(), 64u);
}

TEST_P(HandlerDiff, EmptyDatasetVerifies) {
  SoapEnvelope request = request_from(GetParam(), LeadDataset{});
  const VerificationOutcome o =
      parse_verify_response(verification_handler(std::move(request)));
  EXPECT_TRUE(o.ok);
  EXPECT_EQ(o.count, 0u);
  EXPECT_EQ(o.checksum, 0xcbf29ce484222325ULL);
}

INSTANTIATE_TEST_SUITE_P(Origins, HandlerDiff,
                         ::testing::Values(Origin::kBxsaZeroCopy,
                                           Origin::kOwned, Origin::kXml),
                         [](const auto& info) {
                           std::string s = origin_name(info.param);
                           for (char& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

// The range rule is "ok iff 150.0 <= v < 400.0": NaN and the infinities
// fail on every path, the lower bound is inclusive, the upper exclusive.
TEST(VerifyDataset, RangeRuleRejectsNanAndInfinities) {
  struct Case {
    double value;
    bool ok;
  };
  const Case cases[] = {
      {std::numeric_limits<double>::quiet_NaN(), false},
      {-std::numeric_limits<double>::quiet_NaN(), false},
      {std::numeric_limits<double>::infinity(), false},
      {-std::numeric_limits<double>::infinity(), false},
      {150.0, true},
      {std::nextafter(150.0, 0.0), false},
      {std::nextafter(400.0, 0.0), true},
      {400.0, false},
  };
  for (const Case& c : cases) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{5}}) {
      SCOPED_TRACE("value=" + std::to_string(c.value) + " at " +
                   std::to_string(at));
      LeadDataset d = workload::make_lead_dataset(6);
      d.values[at] = c.value;
      EXPECT_EQ(verify_dataset(d).ok, c.ok) << "LeadDataset path";
      SoapEnvelope request = request_from(Origin::kBxsaZeroCopy, d);
      EXPECT_EQ(verify_dataset(workload::lead_view(*request.body_payload())).ok,
                c.ok)
          << "view path";
      EXPECT_EQ(parse_verify_response(verification_handler(std::move(request)))
                    .ok,
                c.ok)
          << "handler";
    }
  }
}

TEST(VerifyDataset, ArraysOfUnequalLengthDoNotVerify) {
  LeadDataset d = workload::make_lead_dataset(8);
  d.values.pop_back();
  EXPECT_FALSE(verify_dataset(d).ok);
  EXPECT_EQ(verify_dataset(d).checksum, workload::dataset_checksum(d));
}

/// The DecodeError message a malformed lead:data payload draws from the
/// handler ("" when it does not throw one).
std::string handler_decode_error(xdm::NodePtr payload) {
  try {
    verification_handler(SoapEnvelope::wrap(std::move(payload)));
  } catch (const DecodeError& e) {
    return e.what();
  }
  return "";
}

TEST(HandlerShapeErrors, MalformedDataPayloadsKeepTheirDecodeErrors) {
  using xdm::QName;
  EXPECT_EQ(handler_decode_error(
                xdm::make_array<double>(QName("data"), {300.0})),
            "decode: lead payload must be a component element");

  EXPECT_EQ(handler_decode_error(xdm::make_element(QName("data"))),
            "decode: lead payload missing index/values arrays");

  auto no_values = xdm::make_element(QName("data"));
  no_values->add_child(xdm::make_array<std::int32_t>(QName("index"), {0}));
  EXPECT_EQ(handler_decode_error(std::move(no_values)),
            "decode: lead payload missing index/values arrays");

  auto wrong_type = xdm::make_element(QName("data"));
  wrong_type->add_child(xdm::make_array<std::int64_t>(QName("index"), {0}));
  wrong_type->add_child(xdm::make_array<double>(QName("values"), {300.0}));
  EXPECT_EQ(handler_decode_error(std::move(wrong_type)),
            "decode: lead payload arrays have wrong item types");

  auto leaf_values = xdm::make_element(QName("data"));
  leaf_values->add_child(xdm::make_array<std::int32_t>(QName("index"), {0}));
  leaf_values->add_child(xdm::make_leaf<double>(QName("values"), 300.0));
  EXPECT_EQ(handler_decode_error(std::move(leaf_values)),
            "decode: lead payload arrays have wrong item types");

  auto mismatched = xdm::make_element(QName("data"));
  mismatched->add_child(
      xdm::make_array<std::int32_t>(QName("index"), {0, 1}));
  mismatched->add_child(xdm::make_array<double>(QName("values"), {300.0}));
  EXPECT_EQ(handler_decode_error(std::move(mismatched)),
            "decode: lead payload arrays differ in length");
}

}  // namespace
}  // namespace bxsoap::services
