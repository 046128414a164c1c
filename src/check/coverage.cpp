#include "check/coverage.hpp"

namespace mewc::cov {

namespace detail {
constinit thread_local CoverageMap* g_active = nullptr;
}  // namespace detail

namespace {

constexpr std::array<std::string_view, kSiteCount> kSiteNames = {
#define MEWC_COV_NAME(name) #name,
    MEWC_COV_SITE_LIST(MEWC_COV_NAME)
#undef MEWC_COV_NAME
};

}  // namespace

std::string_view site_name(Site s) {
  return kSiteNames[static_cast<std::size_t>(s)];
}

std::size_t site_index_of(std::string_view name) {
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    if (kSiteNames[i] == name) return i;
  }
  return kSiteCount;
}

std::size_t Bitmap::count() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words) {
    std::uint64_t v = w;
    while (v != 0) {
      v &= v - 1;
      ++n;
    }
  }
  return n;
}

bool Bitmap::merge(const Bitmap& other) {
  bool grew = false;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint64_t before = words[i];
    words[i] |= other.words[i];
    grew = grew || words[i] != before;
  }
  return grew;
}

Bitmap Bitmap::minus(const Bitmap& other) const {
  Bitmap out;
  for (std::size_t i = 0; i < words.size(); ++i) {
    out.words[i] = words[i] & ~other.words[i];
  }
  return out;
}

bool Bitmap::covers(const Bitmap& required) const {
  for (std::size_t i = 0; i < words.size(); ++i) {
    if ((required.words[i] & ~words[i]) != 0) return false;
  }
  return true;
}

bool Bitmap::any() const {
  for (const std::uint64_t w : words) {
    if (w != 0) return true;
  }
  return false;
}

Bitmap to_bitmap(const CoverageMap& map) {
  Bitmap b;
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    if (map.hits[i] != 0) b.set(static_cast<Site>(i));
  }
  return b;
}

}  // namespace mewc::cov
