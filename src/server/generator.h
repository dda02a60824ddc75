// Experiment site rosters and the site factory.
//
// The paper evaluated on live sites drawn from directory.google.com's 15
// categories; we rebuild that population synthetically with ground truth
// known by construction. `table1Roster()` and `table2Roster()` encode the
// cookie inventories of Tables 1 and 2 (S1–S30, P1–P6): how many persistent
// cookies each site sets, which are genuinely useful and through which
// mechanism, which sites exhibit the aggressive page dynamics that caused
// the paper's false positives, and which sites respond slowly.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "server/site.h"
#include "util/clock.h"

namespace cookiepicker::server {

// The 15 top-level categories of directory.google.com, circa 2007.
const std::vector<std::string>& directoryCategories();

enum class SiteSpeed { Fast, Typical, Slow };

struct SiteSpec {
  std::string label;     // "S1" … "S30", "P1" … "P6"
  std::string domain;    // "s1.arts.example"
  std::string category;

  // --- ground-truth cookie inventory ---
  int preferenceCookies = 0;   // truly useful: personalization
  int preferenceIntensity = 1; // 1 modest … 3 page-dominating
  bool signUpWall = false;     // truly useful: account gate
  bool queryCache = false;     // truly useful: performance (paper's P2)
  int containerTrackers = 0;   // useless, Path=/ (co-sent with everything)
  int pixelTrackers = 0;       // useless, path-scoped to /metrics/<k>
  bool sessionCart = false;    // first-party session cookie (not persistent)

  // --- page dynamics ---
  double layoutNoiseProbability = 0.0;  // S1/S10/S27-style upper-level churn
  bool adStructuralVariation = false;
  int adSlotsPerSection = 1;            // ad density (leaf-level churn volume)

  SiteSpeed speed = SiteSpeed::Typical;
  int pageCount = 30;
  bool redirectEntry = false;
  // Publish a truthful P3P policy at /w3c/p3p.xml (rare in the wild — the
  // paper's §1 objection; roster builders enable it on a small fraction).
  bool p3pPolicy = false;
  std::uint64_t seed = 1;

  int totalPersistent() const {
    return preferenceCookies + (signUpWall ? 1 : 0) + (queryCache ? 1 : 0) +
           containerTrackers + pixelTrackers;
  }
  int totalUseful() const {
    return preferenceCookies + (signUpWall ? 1 : 0) + (queryCache ? 1 : 0);
  }
  // Names of the genuinely useful cookies this site sets.
  std::vector<std::string> usefulCookieNames() const;

  net::LatencyProfile latencyProfile() const;
};

// Builds the WebSite for a spec (behaviors wired, ready to register).
std::shared_ptr<WebSite> buildSite(const SiteSpec& spec,
                                   util::SimClock& clock);

// Builds and registers every site in the roster on the network. Returns
// label → spec for ground-truth lookups.
std::map<std::string, SiteSpec> registerRoster(
    net::Network& network, util::SimClock& clock,
    const std::vector<SiteSpec>& roster);

// The 30-site roster behind Table 1. Persistent-cookie counts match the
// paper's second column site-for-site (103 total); S6 and S16 carry the
// real useful cookies (3 total); S1/S10/S27 get the heavy layout dynamics
// that made the paper mark their useless cookies useful; S4/S17/S28 are
// slow responders.
std::vector<SiteSpec> table1Roster();

// The six-site roster behind Table 2 (P1–P6): every site has truly useful
// persistent cookies — preference (P1, P4, P6), performance (P2), and
// sign-up (P3, P5); P5 and P6 additionally send useless trackers in the
// same requests, reproducing the co-marking effect.
std::vector<SiteSpec> table2Roster();

// A generic site spec for examples and stress tests.
SiteSpec makeGenericSpec(const std::string& label, const std::string& domain,
                         std::uint64_t seed);

// A large population for the measurement-study reproduction: `siteCount`
// sites across the 15 categories with a realistic cookie-usage mixture —
// some cookie-free, some session-only, most setting first-party persistent
// cookies with the lifetime distribution of trackerLifetimeSeconds().
std::vector<SiteSpec> measurementRoster(int siteCount, std::uint64_t seed);

// Standalone large-page HTML for the detection-cost scaling benchmark:
// `sections` scales node count roughly linearly (~60 nodes per section).
std::string generateLargePageHtml(int sections, std::uint64_t seed);

// Deterministic tracker-cookie lifetime for (site seed, tracker index),
// drawn from a distribution shaped like the authors' measurement study
// (>60% of first-party persistent cookies live one year or longer).
std::int64_t trackerLifetimeSeconds(std::uint64_t seed, int index);

}  // namespace cookiepicker::server
