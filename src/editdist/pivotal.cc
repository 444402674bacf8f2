#include "editdist/pivotal.h"

#include <algorithm>

#include "common/bitvector.h"
#include "common/epoch_stamps.h"
#include "common/timer.h"
#include "editdist/verify.h"
#include "kernels/kernels.h"

namespace pigeonring::editdist {

namespace {

// Search's per-query scratch, one per thread (common/epoch_stamps.h).
struct Scratch {
  EpochStamps seen;
  std::vector<uint8_t> decided;
  std::vector<uint64_t> ruled_out;  // bitmask of chain starts ruled out
};

}  // namespace

EditDistanceSearcher::EditDistanceSearcher(
    const std::vector<std::string>* data, int tau, int kappa)
    : data_(data), tau_(tau), kappa_(kappa) {
  PR_CHECK(data_ != nullptr);
  PR_CHECK(tau_ >= 0);
  PR_CHECK_MSG(tau_ + 1 <= 64, "ruled-out bitmask supports at most 64 boxes");
  const int n = static_cast<int>(data_->size());
  auto index = std::make_shared<Index>(*data, kappa);
  index->profiles.reserve(n);
  index->padded.reserve(n);
  index->window_masks.reserve(n);
  for (int id = 0; id < n; ++id) {
    const std::string& s = (*data_)[id];
    index->profiles.push_back(index->dictionary.Profile(s, tau_));
    index->padded.push_back(PadForGrams(s, kappa_));
    index->window_masks.push_back(WindowMasks(index->padded.back()));
    index->ids_by_length[static_cast<int>(s.size())].push_back(id);
    const GramProfile& profile = index->profiles.back();
    if (profile.is_short) {
      index->short_ids.push_back(id);
      continue;
    }
    for (size_t j = 0; j < profile.pivotal.size(); ++j) {
      index->pivotal_index[profile.pivotal[j].rank].push_back(
          {id, static_cast<int>(j), profile.pivotal[j].position});
    }
    for (const Gram& g : profile.prefix) {
      index->prefix_index[g.rank].push_back({id, g.position});
    }
  }
  index_ = std::move(index);
}

EditDistanceSearcher EditDistanceSearcher::FromBuilt(
    const std::vector<std::string>* data, int tau, int kappa,
    std::shared_ptr<const Index> index) {
  PR_CHECK(data != nullptr);
  PR_CHECK(tau >= 0);
  PR_CHECK_MSG(tau + 1 <= 64, "ruled-out bitmask supports at most 64 boxes");
  PR_CHECK(index != nullptr);
  PR_CHECK(index->profiles.size() == data->size());
  return EditDistanceSearcher(data, tau, kappa, std::move(index));
}

EditDistanceSearcher::EditDistanceSearcher(
    const std::vector<std::string>* data, int tau, int kappa,
    std::shared_ptr<const Index> index)
    : data_(data), tau_(tau), kappa_(kappa), index_(std::move(index)) {}

std::vector<uint64_t> EditDistanceSearcher::WindowMasks(
    const std::string& s) const {
  std::vector<uint64_t> masks(s.size());
  for (int u = 0; u < static_cast<int>(s.size()); ++u) {
    const int sub_len = std::min<int>(kappa_, static_cast<int>(s.size()) - u);
    masks[u] = AlphabetMask(std::string_view(s).substr(u, sub_len));
  }
  return masks;
}

int EditDistanceSearcher::ContentLowerBound(
    uint64_t gram_mask, int gram_pos,
    const std::vector<uint64_t>& other_masks, int good_enough) const {
  const int len = static_cast<int>(other_masks.size());
  if (len == 0) return kappa_;
  const int lo = std::max(0, gram_pos - tau_);
  const int hi = std::min(gram_pos + tau_, len - 1);
  if (lo > hi) return kappa_;
  // Block-signature popcount chain over the window. The mask-distance bound
  // is (popcount + 1) / 2, so bound <= good_enough iff popcount <=
  // 2 * good_enough; an early stop may return the minimum of a scanned
  // prefix only, but any such value also satisfies <= good_enough, which is
  // all the chain check uses it for (completeness is unaffected).
  const int min_pc = kernels::MinXorPopcount(
      other_masks.data() + lo, hi - lo + 1, gram_mask, 2 * good_enough);
  return std::min(kappa_, (min_pc + 1) / 2);
}

int EditDistanceSearcher::ExactBox(const std::string& side, const Gram& gram,
                                   const std::string& other) const {
  return MinSubstringEditDistance(
      std::string_view(side).substr(gram.position, kappa_), other,
      gram.position - tau_, gram.position + tau_, kappa_ + tau_ - 1);
}

std::vector<int> EditDistanceSearcher::Search(
    const std::string& query, EditFilter filter, int chain_length,
    engine::QueryStats* stats) const {
  StopWatch total_watch;
  StopWatch phase_watch;
  engine::QueryStats local;
  const Index& index = *index_;
  const int m = tau_ + 1;
  const int l = std::clamp(chain_length, 1, m);
  const int q_len = static_cast<int>(query.size());
  const GramProfile q_profile = index.dictionary.Profile(query, tau_);

  Scratch& scratch = PerThread<Scratch>();
  scratch.seen.NextEpoch(data_->size(), scratch.decided, scratch.ruled_out);
  uint8_t* const decided = scratch.decided.data();
  uint64_t* const ruled_out = scratch.ruled_out.data();
  auto touch = [&](int id) {
    if (scratch.seen.Touch(id)) {
      decided[id] = 0;
      ruled_out[id] = 0;
    }
  };

  std::vector<int> candidates;  // Cand-1 for Pivotal, chain survivors for Ring
  auto add_candidate = [&](int id) {
    touch(id);
    if (decided[id]) return;
    decided[id] = 1;
    candidates.push_back(id);
  };

  if (q_profile.is_short) {
    // Too few query grams for the pivotal scheme: fall back to the length
    // filter for the whole collection.
    for (int len = q_len - tau_; len <= q_len + tau_; ++len) {
      auto it = index.ids_by_length.find(len);
      if (it == index.ids_by_length.end()) continue;
      for (int id : it->second) add_candidate(id);
    }
  } else {
    // Short data strings are always candidates (within the length window).
    for (int id : index.short_ids) {
      const int len = static_cast<int>((*data_)[id].size());
      if (std::abs(len - q_len) <= tau_) add_candidate(id);
    }

    const std::string q_padded = PadForGrams(query, kappa_);
    const std::vector<uint64_t> q_masks = WindowMasks(q_padded);

    // The chain check from an exact-match entry box, shared by both probe
    // cases. `side` owns the ring (pivotal grams + masks); `other_masks`
    // provides the windows (Corollary 2 bookkeeping happens inside).
    auto ring_check = [&](int id, const GramProfile& side_profile,
                          const std::vector<uint64_t>& other_masks,
                          int entry) {
      if (decided[id]) return;
      if (ruled_out[id] & (uint64_t{1} << entry)) return;
      if (filter == EditFilter::kPivotal || l == 1) {
        add_candidate(id);
        return;
      }
      int sum = 0;  // entry box value is 0 (exact match)
      int failed_at = 0;
      for (int len = 2; len <= l; ++len) {
        const int box = (entry + len - 1) % m;
        // Uniform thresholds: viable iff sum <= floor(len * tau / m). The
        // window scan may stop early once the box provably fits the
        // remaining budget, but only at the final length — at intermediate
        // lengths the (possibly inflated) early value would carry into
        // later prefix sums and break completeness, so only a bound of 0
        // (the true minimum) may stop the scan there.
        const int budget = len * tau_ / m - sum;
        const int good_enough = len == l ? std::max(0, budget) : 0;
        sum += ContentLowerBound(side_profile.pivotal_masks[box],
                                 side_profile.pivotal[box].position,
                                 other_masks, good_enough);
        if (sum * m > len * tau_) {
          failed_at = len;
          break;
        }
      }
      if (failed_at != 0) {
        for (int off = 0; off < failed_at; ++off) {
          ruled_out[id] |= uint64_t{1} << ((entry + off) % m);
        }
        return;
      }
      add_candidate(id);
    };

    // Case A: x's prefix ends first; probe q's prefix grams against data
    // pivotal grams.
    for (const Gram& g : q_profile.prefix) {
      if (g.rank < 0) continue;
      auto it = index.pivotal_index.find(g.rank);
      if (it == index.pivotal_index.end()) continue;
      for (const PivotalPosting& posting : it->second) {
        ++local.index_hits;
        const GramProfile& x_profile = index.profiles[posting.id];
        if (x_profile.prefix_last_rank > q_profile.prefix_last_rank) continue;
        if (std::abs(posting.position - g.position) > tau_) continue;
        const int x_len = static_cast<int>((*data_)[posting.id].size());
        if (std::abs(x_len - q_len) > tau_) continue;
        touch(posting.id);
        ring_check(posting.id, x_profile, q_masks, posting.pivotal_index);
      }
    }
    // Case B: q's prefix ends first; probe q's pivotal grams against data
    // prefix grams. The ring is q's.
    for (size_t j = 0; j < q_profile.pivotal.size(); ++j) {
      const Gram& g = q_profile.pivotal[j];
      if (g.rank < 0) continue;
      auto it = index.prefix_index.find(g.rank);
      if (it == index.prefix_index.end()) continue;
      for (const PrefixPosting& posting : it->second) {
        ++local.index_hits;
        const GramProfile& x_profile = index.profiles[posting.id];
        if (x_profile.prefix_last_rank <= q_profile.prefix_last_rank) {
          continue;
        }
        if (std::abs(posting.position - g.position) > tau_) continue;
        const int x_len = static_cast<int>((*data_)[posting.id].size());
        if (std::abs(x_len - q_len) > tau_) continue;
        touch(posting.id);
        ring_check(posting.id, q_profile, index.window_masks[posting.id],
                   static_cast<int>(j));
      }
    }
  }
  local.candidates = static_cast<int64_t>(candidates.size());

  // Alignment filter (Pivotal baseline only): exact per-box minimum edit
  // distances summed against tau — the l = m basic form of the principle.
  std::vector<int> stage2;
  if (filter == EditFilter::kPivotal && !q_profile.is_short) {
    const std::string q_padded = PadForGrams(query, kappa_);
    for (int id : candidates) {
      const GramProfile& x_profile = index.profiles[id];
      if (x_profile.is_short) {
        stage2.push_back(id);
        continue;
      }
      const bool side_is_x =
          x_profile.prefix_last_rank <= q_profile.prefix_last_rank;
      const GramProfile& side_profile = side_is_x ? x_profile : q_profile;
      const std::string& side = side_is_x ? index.padded[id] : q_padded;
      const std::string& other = side_is_x ? q_padded : index.padded[id];
      int sum = 0;
      for (const Gram& gram : side_profile.pivotal) {
        sum += ExactBox(side, gram, other);
        if (sum > tau_) break;
      }
      if (sum <= tau_) stage2.push_back(id);
    }
  } else {
    stage2 = candidates;
  }
  local.candidates_stage2 = static_cast<int64_t>(stage2.size());
  local.filter_millis = phase_watch.ElapsedMillis();

  phase_watch.Restart();
  std::vector<int> results;
  for (int id : stage2) {
    if (BandedEditDistance((*data_)[id], query, tau_) <= tau_) {
      results.push_back(id);
    }
  }
  std::sort(results.begin(), results.end());
  local.verify_millis = phase_watch.ElapsedMillis();
  local.results = static_cast<int64_t>(results.size());
  local.total_millis = total_watch.ElapsedMillis();
  if (stats != nullptr) *stats = local;
  return results;
}

std::vector<int> BruteForceEditSearch(const std::vector<std::string>& data,
                                      const std::string& query, int tau) {
  std::vector<int> results;
  for (int id = 0; id < static_cast<int>(data.size()); ++id) {
    if (BandedEditDistance(data[id], query, tau) <= tau) results.push_back(id);
  }
  return results;
}

}  // namespace pigeonring::editdist
