#include "smt/mini/sat_solver.h"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.h"

namespace pugpara::smt::mini {

namespace {
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr double kRescale = 1e100;
constexpr size_t kMaxSubsumerSize = 16;    // subsumers longer than this skip
constexpr size_t kMaxOccScan = 400;        // skip huge occurrence lists
constexpr size_t kElimMaxOcc = 10;         // |pos| + |neg| cap for BVE
constexpr size_t kElimMaxResolvent = 16;   // literal cap per resolvent
}  // namespace

Var SatSolver::newVar() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::Undef);
  savedPhase_.push_back(false);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0);
  seen_.push_back(0);
  frozen_.push_back(false);
  eliminated_.push_back(false);
  elimStore_.emplace_back();
  watches_.emplace_back();
  watches_.emplace_back();
  heapPos_.push_back(static_cast<uint32_t>(order_.size()));
  order_.push_back(v);
  // Sift up is unnecessary (activity 0 <= everything).
  return v;
}

void SatSolver::setFrozen(Var v, bool frozen) {
  frozen_[v] = frozen;
  // Freezing an already-eliminated variable means the caller is about to
  // rely on it again: bring its clauses back.
  if (frozen && eliminated_[v]) restoreVar(v);
}

// heap helpers ---------------------------------------------------------------
// order_ is a binary max-heap on activity_; heapPos_[v] indexes v's slot
// (UINT32_MAX when absent). backtrack() re-inserts unassigned variables so
// they are immediately eligible again.

void SatSolver::heapSiftUp(uint32_t pos) {
  const Var v = order_[pos];
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / 2;
    if (activity_[order_[parent]] >= activity_[v]) break;
    order_[pos] = order_[parent];
    heapPos_[order_[pos]] = pos;
    pos = parent;
  }
  order_[pos] = v;
  heapPos_[v] = pos;
}

void SatSolver::heapSiftDown(uint32_t pos) {
  const Var v = order_[pos];
  for (;;) {
    uint32_t child = 2 * pos + 1;
    if (child >= order_.size()) break;
    if (child + 1 < order_.size() &&
        activity_[order_[child + 1]] > activity_[order_[child]])
      ++child;
    if (activity_[order_[child]] <= activity_[v]) break;
    order_[pos] = order_[child];
    heapPos_[order_[pos]] = pos;
    pos = child;
  }
  order_[pos] = v;
  heapPos_[v] = pos;
}

void SatSolver::heapInsert(Var v) {
  if (heapPos_[v] != UINT32_MAX) return;
  heapPos_[v] = static_cast<uint32_t>(order_.size());
  order_.push_back(v);
  heapSiftUp(heapPos_[v]);
}

Var SatSolver::heapPop() {
  const Var v = order_.front();
  heapPos_[v] = UINT32_MAX;
  const Var last = order_.back();
  order_.pop_back();
  if (!order_.empty()) {
    order_[0] = last;
    heapPos_[last] = 0;
    heapSiftDown(0);
  }
  return v;
}

void SatSolver::bumpVar(Var v) {
  activity_[v] += varInc_;
  if (activity_[v] > kRescale) {
    for (double& a : activity_) a /= kRescale;
    varInc_ /= kRescale;
  }
  if (heapPos_[v] != UINT32_MAX) heapSiftUp(heapPos_[v]);
}

Lit SatSolver::pickBranch() {
  while (!order_.empty()) {
    const Var v = heapPop();
    if (!assigned(v) && !eliminated_[v]) return Lit(v, !savedPhase_[v]);
  }
  return Lit();  // undefined: everything assigned
}

// memory sentinel -------------------------------------------------------------

uint64_t SatSolver::approxBytes() const {
  uint64_t bytes = externalBytes_;
  for (const Clause& c : clauses_)
    bytes += sizeof(Clause) + c.lits.capacity() * sizeof(Lit);
  for (const auto& w : watches_)
    bytes += w.capacity() * sizeof(Watcher);
  for (const auto& perVar : elimStore_)
    for (const auto& lits : perVar)
      bytes += sizeof(lits) + lits.capacity() * sizeof(Lit);
  // Flat per-variable cost: assigns/phase/level/reason/activity/heap/seen
  // plus the empty vector headers above — ~100 bytes is close enough for a
  // soft budget.
  bytes += static_cast<uint64_t>(numVars()) * 100;
  bytes += trail_.capacity() * sizeof(Lit);
  return bytes;
}

bool SatSolver::memoryOk() {
  if (memBudget_ == 0) return true;
  if (memExceeded_) return false;
  if (approxBytes() > memBudget_) {
    memExceeded_ = true;
    return false;
  }
  memNextCheckAt_ = clauses_.size() + clauses_.size() / 4 + 1024;
  return true;
}

// clause management -----------------------------------------------------------

bool SatSolver::addClause(std::vector<Lit> lits) {
  // Memory sentinel (amortized: re-scan only after the arena grew 25%).
  // A breach during encoding throws rather than silently dropping the
  // clause — an incomplete CNF could answer Sat on an unsatisfiable
  // formula. The SMT layer catches this and reports Unknown{resource}.
  if (memBudget_ != 0 &&
      (memExceeded_ ||
       (clauses_.size() >= memNextCheckAt_ && !memoryOk()))) {
    memExceeded_ = true;
    throw PugError("minismt: memory budget exceeded while encoding");
  }
  if (unsatAtTopLevel_) return false;
  require(trailLim_.empty(), "SatSolver::addClause during solve");
  return addClauseRoot(std::move(lits));
}

bool SatSolver::addClauseRoot(std::vector<Lit> lits) {
  if (unsatAtTopLevel_) return false;
  // Restore-on-mention: a clause naming an eliminated variable re-activates
  // it (recursively — restored clauses may name other eliminated vars).
  for (const Lit l : lits)
    if (eliminated_[l.var()]) restoreVar(l.var());
  if (unsatAtTopLevel_) return false;
  // Normalize: sort, dedupe, drop tautologies.
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (size_t i = 0; i + 1 < lits.size(); ++i)
    if (lits[i].var() == lits[i + 1].var()) return true;  // l ∨ ¬l
  // Simplify against the top level: between solve() calls every assignment
  // is a permanent (level-0) consequence, so satisfied clauses vanish and
  // falsified literals drop — which also keeps the watch invariant intact
  // for clauses added to an incrementally solved instance.
  size_t keep = 0;
  for (const Lit l : lits) {
    const LBool v = value(l);
    if (v == LBool::True) return true;
    if (v == LBool::Undef) lits[keep++] = l;
  }
  lits.resize(keep);
  if (lits.empty()) {
    unsatAtTopLevel_ = true;
    return false;
  }
  if (lits.size() == 1) {
    // At decision level 0 units go straight onto the trail; the next
    // propagate() (solve entry or restart) spreads the consequences.
    enqueue(lits[0], kNoReason);
    return true;
  }
  Clause c;
  c.lits = std::move(lits);
  clauses_.push_back(std::move(c));
  attach(static_cast<ClauseRef>(clauses_.size() - 1));
  return true;
}

void SatSolver::restoreVar(Var v) {
  eliminated_[v] = false;
  ++stats_.restoredVars;
  if (!assigned(v)) heapInsert(v);
  std::vector<std::vector<Lit>> stored = std::move(elimStore_[v]);
  elimStore_[v].clear();
  for (auto& lits : stored) addClauseRoot(std::move(lits));
}

void SatSolver::attach(ClauseRef cr) {
  const Clause& c = clauses_[cr];
  watches_[(~c.lits[0]).code()].push_back({cr, c.lits[1]});
  watches_[(~c.lits[1]).code()].push_back({cr, c.lits[0]});
}

// trail / propagation -----------------------------------------------------------

void SatSolver::enqueue(Lit l, ClauseRef reason) {
  assigns_[l.var()] = l.negated() ? LBool::False : LBool::True;
  savedPhase_[l.var()] = !l.negated();
  level_[l.var()] = static_cast<int>(trailLim_.size());
  reason_[l.var()] = reason;
  trail_.push_back(l);
}

SatSolver::ClauseRef SatSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[p.code()];
    size_t keep = 0;
    for (size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::True) {
        ws[keep++] = w;
        continue;
      }
      Clause& c = clauses_[w.clause];
      // Ensure c.lits[1] is the falsified watch (~p).
      if (c.lits[0] == ~p) std::swap(c.lits[0], c.lits[1]);
      if (value(c.lits[0]) == LBool::True) {
        ws[keep++] = {w.clause, c.lits[0]};
        continue;
      }
      // Find a replacement watch.
      bool moved = false;
      for (size_t k = 2; k < c.lits.size(); ++k) {
        if (value(c.lits[k]) != LBool::False) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[(~c.lits[1]).code()].push_back({w.clause, c.lits[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflict.
      ws[keep++] = w;
      if (value(c.lits[0]) == LBool::False) {
        // Conflict: keep the remaining watchers and report.
        for (size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
        ws.resize(keep);
        qhead_ = trail_.size();
        return w.clause;
      }
      enqueue(c.lits[0], w.clause);
    }
    ws.resize(keep);
  }
  return kNoReason;
}

void SatSolver::backtrack(int targetLevel) {
  if (static_cast<int>(trailLim_.size()) <= targetLevel) return;
  const size_t bound = trailLim_[targetLevel];
  for (size_t i = trail_.size(); i-- > bound;) {
    const Var v = trail_[i].var();
    assigns_[v] = LBool::Undef;
    reason_[v] = kNoReason;
    heapInsert(v);
  }
  trail_.resize(bound);
  trailLim_.resize(targetLevel);
  qhead_ = trail_.size();
}

// conflict analysis ---------------------------------------------------------------

void SatSolver::analyze(ClauseRef conflict, std::vector<Lit>& learnt,
                        int& backLevel) {
  learnt.clear();
  learnt.push_back(Lit());  // slot for the asserting literal
  int counter = 0;
  Lit p;
  bool first = true;
  size_t index = trail_.size();
  const int curLevel = static_cast<int>(trailLim_.size());

  ClauseRef cr = conflict;
  do {
    Clause& c = clauses_[cr];
    if (c.learnt) bumpClause(cr);
    for (size_t i = first ? 0 : 1; i < c.lits.size(); ++i) {
      const Lit q = c.lits[i];
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      seen_[q.var()] = 1;
      bumpVar(q.var());
      if (level_[q.var()] >= curLevel) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Next literal on the trail to resolve on.
    while (!seen_[trail_[index - 1].var()]) --index;
    p = trail_[--index];
    seen_[p.var()] = 0;
    cr = reason_[p.var()];
    first = false;
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Cheap self-subsumption minimization: drop literals whose reason clause
  // is entirely covered by the learnt set.
  auto redundant = [&](Lit l) {
    const ClauseRef r = reason_[l.var()];
    if (r == kNoReason) return false;
    const Clause& rc = clauses_[r];
    for (size_t i = 1; i < rc.lits.size(); ++i) {
      const Lit q = rc.lits[i];
      if (!seen_[q.var()] && level_[q.var()] != 0) return false;
    }
    return true;
  };
  // The seen_ marks must stay valid while redundant() runs and must ALL be
  // cleared afterwards — including those of dropped literals, which the
  // in-place compaction overwrites.
  const std::vector<Lit> original(learnt.begin() + 1, learnt.end());
  size_t keep = 1;
  for (size_t i = 1; i < learnt.size(); ++i)
    if (!redundant(learnt[i])) learnt[keep++] = learnt[i];
  for (const Lit l : original) seen_[l.var()] = 0;
  learnt.resize(keep);

  // Backjump level: highest level among the non-asserting literals.
  backLevel = 0;
  for (size_t i = 1; i < learnt.size(); ++i) {
    backLevel = std::max(backLevel, level_[learnt[i].var()]);
    if (level_[learnt[i].var()] == backLevel) std::swap(learnt[1], learnt[i]);
  }
}

uint32_t SatSolver::computeLbd(std::span<const Lit> lits) {
  // Number of distinct decision levels among the (assigned) literals.
  ++lbdStampGen_;
  if (lbdStamp_.size() < trailLim_.size() + 1)
    lbdStamp_.resize(trailLim_.size() + 1, 0);
  uint32_t n = 0;
  for (const Lit l : lits) {
    const int lev = level_[l.var()];
    if (lev <= 0) continue;
    if (lbdStamp_[static_cast<size_t>(lev)] != lbdStampGen_) {
      lbdStamp_[static_cast<size_t>(lev)] = lbdStampGen_;
      ++n;
    }
  }
  return n;
}

void SatSolver::recordLbd(uint32_t lbd) {
  if (lbd <= 2)
    ++stats_.lbdGlue;
  else if (lbd <= 6)
    ++stats_.lbdMid;
  else
    ++stats_.lbdLarge;
}

void SatSolver::bumpClause(ClauseRef cr) {
  Clause& c = clauses_[cr];
  c.activity += clauseInc_;
  if (c.activity > kRescale) {
    for (Clause& cl : clauses_)
      if (cl.learnt) cl.activity /= kRescale;
    clauseInc_ /= kRescale;
  }
  // Glucose-style dynamic glue: a learnt clause active in conflict analysis
  // has all literals assigned, so its LBD can be refreshed (kept minimal).
  if (c.learnt && c.lbd > 1) {
    const uint32_t l = computeLbd(c.lits);
    if (l > 0 && l < c.lbd) c.lbd = l;
  }
}

void SatSolver::decayActivities() {
  varInc_ /= kVarDecay;
  clauseInc_ /= kClauseDecay;
}

void SatSolver::reduceLearnts() {
  std::vector<ClauseRef> learnts;
  for (ClauseRef i = 0; i < clauses_.size(); ++i)
    if (clauses_[i].learnt) learnts.push_back(i);
  if (learnts.size() < 64) return;
  std::vector<bool> isReason(clauses_.size(), false);
  for (const Lit l : trail_)
    if (reason_[l.var()] != kNoReason) isReason[reason_[l.var()]] = true;

  std::vector<bool> drop(clauses_.size(), false);
  uint64_t dropped = 0;
  if (cfg_.lbdReduce) {
    // LBD-driven: delete the worst (highest-glue, then least active) half,
    // protecting glue clauses (lbd <= glueLbd), binaries and reasons.
    std::sort(learnts.begin(), learnts.end(),
              [this](ClauseRef a, ClauseRef b) {
                if (clauses_[a].lbd != clauses_[b].lbd)
                  return clauses_[a].lbd > clauses_[b].lbd;
                return clauses_[a].activity < clauses_[b].activity;
              });
    const size_t target = learnts.size() / 2;
    for (const ClauseRef cr : learnts) {
      if (dropped >= target) break;
      const Clause& c = clauses_[cr];
      if (isReason[cr] || c.lits.size() <= 2 || c.lbd <= cfg_.glueLbd)
        continue;
      drop[cr] = true;
      ++dropped;
    }
  } else {
    // Activity-based fallback: drop the less active half.
    std::sort(learnts.begin(), learnts.end(),
              [this](ClauseRef a, ClauseRef b) {
                return clauses_[a].activity < clauses_[b].activity;
              });
    for (size_t i = 0; i < learnts.size() / 2; ++i)
      if (!isReason[learnts[i]] && clauses_[learnts[i]].lits.size() > 2) {
        drop[learnts[i]] = true;
        ++dropped;
      }
  }
  stats_.learntsDeleted += dropped;

  // Rebuild watches without the dropped clauses. Clause refs must stay
  // stable (reasons point into clauses_), so we only clear bodies.
  for (auto& ws : watches_) {
    size_t keep = 0;
    for (const Watcher& w : ws)
      if (!drop[w.clause]) ws[keep++] = w;
    ws.resize(keep);
  }
  for (ClauseRef i = 0; i < clauses_.size(); ++i)
    if (drop[i]) clauses_[i].lits.clear(), clauses_[i].learnt = false;
}

// inprocessing -----------------------------------------------------------------

void SatSolver::maybeInprocess(std::span<const Lit> assumptions) {
  if (!cfg_.inprocess || unsatAtTopLevel_) return;
  if (clauses_.size() < inprocessNextAt_) return;
  inprocess(assumptions);
  inprocessNextAt_ =
      clauses_.size() + std::max<size_t>(2000, clauses_.size() / 4);
}

void SatSolver::inprocess(std::span<const Lit> assumptions) {
  ++stats_.inprocessRuns;
  // Freeze this call's assumption variables for the duration of the pass:
  // inprocessing must never delete a clause an assumption still needs.
  std::vector<Var> thaw;
  for (const Lit a : assumptions)
    if (!frozen_[a.var()]) {
      frozen_[a.var()] = true;
      thaw.push_back(a.var());
    }

  // Root reasons are never dereferenced once the trail is final at level 0;
  // clear them so clause deletion cannot leave dangling references.
  for (const Lit l : trail_) reason_[l.var()] = kNoReason;

  // 1. Top-level simplification: drop satisfied clauses, strip falsified
  // literals, and sort each survivor (the subset tests below and the
  // resolvent merges rely on sorted literals).
  std::vector<Lit> pendingUnits;
  bool ok = true;
  for (ClauseRef i = 0; i < clauses_.size() && ok; ++i) {
    Clause& c = clauses_[i];
    if (c.lits.empty()) continue;
    bool sat = false;
    size_t keep = 0;
    for (const Lit l : c.lits) {
      const LBool v = value(l);
      if (v == LBool::True) {
        sat = true;
        break;
      }
      if (v == LBool::Undef) c.lits[keep++] = l;
    }
    if (sat) {
      c.lits.clear();
      c.learnt = false;
      continue;
    }
    c.lits.resize(keep);
    if (c.lits.empty()) {
      ok = false;
      break;
    }
    if (c.lits.size() == 1) {
      pendingUnits.push_back(c.lits[0]);
      c.lits.clear();
      c.learnt = false;
      continue;
    }
    std::sort(c.lits.begin(), c.lits.end());
  }

  if (ok) {
    // Occurrence lists and variable signatures over the live clauses.
    std::vector<std::vector<ClauseRef>> occ(watches_.size());
    std::vector<uint64_t> sig(clauses_.size(), 0);
    for (ClauseRef i = 0; i < clauses_.size(); ++i) {
      if (!clauseLive(i)) continue;
      uint64_t s = 0;
      for (const Lit l : clauses_[i].lits) {
        occ[l.code()].push_back(i);
        s |= uint64_t{1} << (l.var() & 63);
      }
      sig[i] = s;
    }
    subsumptionPass(occ, sig, pendingUnits);
    eliminatePass(occ, sig);
    // eliminatePass routes unit resolvents through elimUnits_ (below).
    pendingUnits.insert(pendingUnits.end(), elimUnits_.begin(),
                        elimUnits_.end());
    elimUnits_.clear();
  }

  for (const Var v : thaw) frozen_[v] = false;

  if (!ok) {
    unsatAtTopLevel_ = true;
    return;
  }

  // Watches were invalidated wholesale (clauses dropped, strengthened,
  // sorted); rebuild them, apply the pending units and re-propagate the
  // entire root trail against the new clause database.
  rebuildWatches();
  for (const Lit u : pendingUnits) {
    if (value(u) == LBool::False) {
      unsatAtTopLevel_ = true;
      return;
    }
    if (value(u) == LBool::Undef) enqueue(u, kNoReason);
  }
  qhead_ = 0;
  if (propagate() != kNoReason) unsatAtTopLevel_ = true;
}

void SatSolver::subsumptionPass(std::vector<std::vector<ClauseRef>>& occ,
                                std::vector<uint64_t>& sig,
                                std::vector<Lit>& pendingUnits) {
  // Is `a` ⊆ `b`? Both sorted by literal code.
  const auto subset = [](const std::vector<Lit>& a,
                         const std::vector<Lit>& b) {
    size_t j = 0;
    for (const Lit l : a) {
      while (j < b.size() && b[j] < l) ++j;
      if (j >= b.size() || b[j] != l) return false;
      ++j;
    }
    return true;
  };
  std::vector<Lit> flipped;
  const size_t fixedEnd = clauses_.size();
  for (ClauseRef cr = 0; cr < fixedEnd; ++cr) {
    const Clause& c = clauses_[cr];
    if (!clauseLive(cr) || c.learnt || c.lits.size() > kMaxSubsumerSize)
      continue;
    // Backward subsumption: c kills every superset. Scan the occurrence
    // list of c's least-occurring literal (every superset contains it).
    Lit best = c.lits[0];
    for (const Lit l : c.lits)
      if (occ[l.code()].size() < occ[best.code()].size()) best = l;
    if (occ[best.code()].size() <= kMaxOccScan) {
      for (const ClauseRef dr : occ[best.code()]) {
        if (dr == cr || !clauseLive(dr)) continue;
        Clause& d = clauses_[dr];
        if (d.lits.size() < c.lits.size()) continue;
        if (sig[cr] & ~sig[dr]) continue;
        if (!subset(c.lits, d.lits)) continue;
        d.lits.clear();
        d.learnt = false;
        ++stats_.subsumed;
      }
    }
    // Self-subsuming resolution: if c with one literal l flipped is a
    // subset of d, resolving removes ~l from d (d gets strictly stronger).
    for (const Lit l : c.lits) {
      if (occ[(~l).code()].size() > kMaxOccScan) continue;
      flipped = c.lits;
      *std::find(flipped.begin(), flipped.end(), l) = ~l;
      std::sort(flipped.begin(), flipped.end());
      for (const ClauseRef dr : occ[(~l).code()]) {
        if (dr == cr || !clauseLive(dr)) continue;
        Clause& d = clauses_[dr];
        if (d.lits.size() < c.lits.size()) continue;
        if (sig[cr] & ~sig[dr]) continue;  // var signatures ignore polarity
        if (!subset(flipped, d.lits)) continue;
        d.lits.erase(std::find(d.lits.begin(), d.lits.end(), ~l));
        ++stats_.strengthened;
        uint64_t s = 0;
        for (const Lit q : d.lits) s |= uint64_t{1} << (q.var() & 63);
        sig[dr] = s;
        if (d.lits.size() == 1) {
          pendingUnits.push_back(d.lits[0]);
          d.lits.clear();
          d.learnt = false;
        }
      }
    }
  }
}

void SatSolver::eliminatePass(std::vector<std::vector<ClauseRef>>& occ,
                              std::vector<uint64_t>& sig) {
  const auto contains = [this](ClauseRef cr, Lit l) {
    const auto& lits = clauses_[cr].lits;
    return std::binary_search(lits.begin(), lits.end(), l);
  };
  const size_t nv = numVars();
  std::vector<ClauseRef> pos, neg;
  for (Var v = 0; v < nv; ++v) {
    if (frozen_[v] || eliminated_[v] || assigned(v)) continue;
    const Lit pl(v, false), nl(v, true);
    // Live original clauses actually containing each polarity (occurrence
    // entries go stale when clauses are dropped or strengthened).
    pos.clear();
    neg.clear();
    for (const ClauseRef cr : occ[pl.code()])
      if (clauseLive(cr) && !clauses_[cr].learnt && contains(cr, pl))
        pos.push_back(cr);
    for (const ClauseRef cr : occ[nl.code()])
      if (clauseLive(cr) && !clauses_[cr].learnt && contains(cr, nl))
        neg.push_back(cr);
    const size_t budget = pos.size() + neg.size();
    if (budget == 0 || budget > kElimMaxOcc) continue;
    // Build all non-tautological resolvents; give up unless the clause
    // count does not grow (MiniSat's no-growth rule) and every resolvent
    // stays short.
    std::vector<std::vector<Lit>> resolvents;
    bool tooBig = false;
    for (const ClauseRef p : pos) {
      for (const ClauseRef n : neg) {
        std::vector<Lit> merged;
        bool taut = false;
        for (const Lit l : clauses_[p].lits)
          if (l != pl) merged.push_back(l);
        for (const Lit l : clauses_[n].lits)
          if (l != nl) merged.push_back(l);
        std::sort(merged.begin(), merged.end());
        merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
        for (size_t i = 0; i + 1 < merged.size(); ++i)
          if (merged[i].var() == merged[i + 1].var()) {
            taut = true;
            break;
          }
        if (taut) continue;
        if (merged.size() > kElimMaxResolvent ||
            resolvents.size() >= budget) {
          tooBig = true;
          break;
        }
        resolvents.push_back(std::move(merged));
      }
      if (tooBig) break;
    }
    if (tooBig) continue;
    // Commit: move the variable's clauses to the elimination store (they
    // fuel restore-on-mention and model extension), purge learnts that
    // mention it (a stale learnt could otherwise re-assign the variable
    // inconsistently with the stored clauses), then add the resolvents.
    auto& store = elimStore_[v];
    for (const ClauseRef cr : pos) {
      store.push_back(std::move(clauses_[cr].lits));
      clauses_[cr].lits.clear();
    }
    for (const ClauseRef cr : neg) {
      store.push_back(std::move(clauses_[cr].lits));
      clauses_[cr].lits.clear();
    }
    for (const Lit l : {pl, nl})
      for (const ClauseRef cr : occ[l.code()])
        if (clauseLive(cr) && clauses_[cr].learnt && contains(cr, l)) {
          clauses_[cr].lits.clear();
          clauses_[cr].learnt = false;
          ++stats_.learntsDeleted;
        }
    eliminated_[v] = true;
    elimOrder_.push_back(v);
    ++stats_.eliminatedVars;
    for (auto& r : resolvents) {
      if (r.size() == 1) {
        elimUnits_.push_back(r[0]);
        continue;
      }
      Clause nc;
      nc.lits = std::move(r);
      clauses_.push_back(std::move(nc));
      const auto cr = static_cast<ClauseRef>(clauses_.size() - 1);
      uint64_t s = 0;
      for (const Lit l : clauses_[cr].lits) {
        occ[l.code()].push_back(cr);
        s |= uint64_t{1} << (l.var() & 63);
      }
      sig.push_back(s);
    }
  }
}

void SatSolver::rebuildWatches() {
  for (auto& ws : watches_) ws.clear();
  // Every live clause has >= 2 literals, all unassigned at the root (the
  // simplification pass stripped the rest), so any two watches are valid.
  for (ClauseRef cr = 0; cr < clauses_.size(); ++cr)
    if (clauseLive(cr)) attach(cr);
}

void SatSolver::extendModel() {
  // Patch eliminated variables into the model, newest elimination first:
  // a variable's stored clauses only mention variables eliminated earlier
  // (or never), which are patched later/already correct. The value is
  // forced true iff some stored clause with the positive literal has no
  // other satisfied literal; false satisfies all remaining clauses (both
  // forced at once would contradict a resolvent the model satisfies).
  if (elimOrder_.empty()) return;
  const auto litTrue = [this](Lit l) {
    return l.var() < model_.size() &&
           (model_[l.var()] ^ l.negated()) == LBool::True;
  };
  std::vector<uint8_t> done(numVars(), 0);
  for (auto it = elimOrder_.rbegin(); it != elimOrder_.rend(); ++it) {
    const Var v = *it;
    if (v >= model_.size() || done[v] || !eliminated_[v]) continue;
    done[v] = 1;
    bool mustTrue = false;
    for (const auto& cl : elimStore_[v]) {
      bool satisfied = false, hasPos = false;
      for (const Lit l : cl) {
        if (l.var() == v) {
          hasPos = hasPos || !l.negated();
          continue;
        }
        if (litTrue(l)) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied && hasPos) {
        mustTrue = true;
        break;
      }
    }
    model_[v] = mustTrue ? LBool::True : LBool::False;
  }
}

// solving -----------------------------------------------------------------------

uint64_t SatSolver::luby(uint64_t i) {
  // Knuth's formula for the Luby sequence.
  uint64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return uint64_t{1} << seq;
}

SatResult SatSolver::solve(std::span<const Lit> assumptions) {
  if (unsatAtTopLevel_) return SatResult::Unsat;
  if (memBudget_ != 0 &&
      (memExceeded_ ||
       (clauses_.size() >= memNextCheckAt_ && !memoryOk())))
    return SatResult::Aborted;
  backtrack(0);
  // Assumptions naming eliminated variables re-activate them first.
  for (const Lit a : assumptions)
    if (a.var() < eliminated_.size() && eliminated_[a.var()])
      restoreVar(a.var());
  if (unsatAtTopLevel_) return SatResult::Unsat;
  if (propagate() != kNoReason) {
    unsatAtTopLevel_ = true;
    return SatResult::Unsat;
  }
  maybeInprocess(assumptions);
  if (unsatAtTopLevel_) return SatResult::Unsat;

  std::vector<Lit> learnt;
  const uint64_t restartBase = cfg_.restartBase == 0 ? 64 : cfg_.restartBase;
  uint64_t conflictsAtRestart = 0;
  uint64_t restartBudget = restartBase * luby(stats_.restarts);
  uint64_t reduceBudget = stats_.learnts + 2000;
  const uint64_t conflictsAtEntry = stats_.conflicts;

  // `done` backtracks to the top level on every exit so the solver is ready
  // for more clauses / another solve; a Sat model is snapshotted (and
  // extended over eliminated variables) first.
  const auto done = [this](SatResult r) {
    if (r == SatResult::Sat) {
      model_.assign(assigns_.begin(), assigns_.end());
      extendModel();
    }
    backtrack(0);
    return r;
  };

  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflictsAtRestart;
      if (trailLim_.empty()) {
        unsatAtTopLevel_ = true;
        return done(SatResult::Unsat);
      }
      int backLevel = 0;
      analyze(conflict, learnt, backLevel);
      // Glue of the fresh learnt (levels are still assigned here).
      const uint32_t lbd = computeLbd(learnt);
      recordLbd(lbd);
      // Chronological backtracking: when the backjump would discard many
      // levels of (often still useful) assignments, step back one level
      // instead. The asserting literal is enqueued there with its reason;
      // levels stay trail-consistent because enqueue stamps the current
      // level, so analyze() needs no changes. Missed lower-level
      // propagations are sound: the watchers still fire on any falsifying
      // assignment, so no conflict is ever missed.
      const int curLevel = static_cast<int>(trailLim_.size());
      int target = backLevel;
      if (cfg_.chrono && learnt.size() > 1 &&
          curLevel - backLevel >= static_cast<int>(cfg_.chronoDistance) &&
          curLevel - 1 > backLevel) {
        target = curLevel - 1;
        ++stats_.chronoBacktracks;
      }
      backtrack(target);
      if (learnt.size() == 1) {
        if (!trailLim_.empty()) backtrack(0);
        if (value(learnt[0]) == LBool::False) {
          unsatAtTopLevel_ = true;
          return done(SatResult::Unsat);
        }
        if (value(learnt[0]) == LBool::Undef) enqueue(learnt[0], kNoReason);
      } else {
        Clause c;
        c.lits = learnt;
        c.learnt = true;
        c.lbd = lbd;
        clauses_.push_back(std::move(c));
        const auto cr = static_cast<ClauseRef>(clauses_.size() - 1);
        attach(cr);
        bumpClause(cr);
        ++stats_.learnts;
        enqueue(learnt[0], cr);
      }
      decayActivities();

      if (conflictBudget_ != 0 &&
          stats_.conflicts - conflictsAtEntry >= conflictBudget_)
        return done(SatResult::Aborted);
      if ((stats_.conflicts & 2047) == 0) {
        if (keepGoing_ && !keepGoing_()) return done(SatResult::Aborted);
        // Learnt clauses grow the arena during solve too; same sentinel,
        // same amortization point as the interrupt poll.
        if (memBudget_ != 0 && clauses_.size() >= memNextCheckAt_ &&
            !memoryOk())
          return done(SatResult::Aborted);
      }
      if (stats_.learnts > reduceBudget) {
        reduceLearnts();
        reduceBudget += reduceBudget / 2;
      }
      if (conflictsAtRestart >= restartBudget) {
        ++stats_.restarts;
        conflictsAtRestart = 0;
        restartBudget = restartBase * luby(stats_.restarts);
        backtrack(0);
      }
    } else {
      // Re-establish the assumptions as pseudo-decisions at the root
      // decision levels (restarts and backjumps may have undone them).
      Lit next = Lit();
      while (trailLim_.size() < assumptions.size()) {
        const Lit p = assumptions[trailLim_.size()];
        if (value(p) == LBool::True) {
          trailLim_.push_back(trail_.size());  // satisfied: dummy level
        } else if (value(p) == LBool::False) {
          // An earlier assumption (or the clause set) implies ¬p: unsat
          // under these assumptions, but the clause set itself lives on.
          return done(SatResult::Unsat);
        } else {
          next = p;
          break;
        }
      }
      if (next == Lit()) {
        next = pickBranch();
        if (next == Lit()) return done(SatResult::Sat);
      }
      ++stats_.decisions;
      trailLim_.push_back(trail_.size());
      enqueue(next, kNoReason);
    }
  }
}

}  // namespace pugpara::smt::mini
