#include "citadel/parity_engine.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <queue>

#include "common/log.h"
#include "common/rng.h"
#include "common/xor_fold.h"
#include "ecc/crc32.h"

namespace citadel {

namespace {

/**
 * Call f(a) for every a in [0, n) that `spec` matches, ascending,
 * without testing the others: fix the spec's masked bits and walk the
 * subsets of its free bits.
 */
template <class F>
void
forEachMatch(const DimSpec &spec, u32 n, F f)
{
    const u32 low = std::bit_ceil(n) - 1;
    if ((spec.value & spec.mask & ~low) != 0)
        return; // A masked bit is set that no a < n has.
    const u32 fixed = spec.value & spec.mask;
    const u32 free = ~spec.mask & low;
    u32 sub = 0;
    do {
        if ((fixed | sub) < n)
            f(fixed | sub);
        sub = (sub - free) & free; // Next subset of `free`, ascending.
    } while (sub != 0);
}

/** Lines of the largest parity group any fold or rebuild gathers. */
u64
maxGroupLines(u64 dies, u64 banks, u64 rows)
{
    return std::max({dies * banks, banks * rows, (dies + 1) * rows});
}

/**
 * Erasure-peeling state over one corrupt set (the classic peeling
 * decoder). Lines are indices into the canonically ordered corrupt
 * list. Per parity group it keeps how many lines are still corrupt and
 * the XOR of their indices, so a group down to one corrupt line names
 * that line in O(1). A line is solvable in dimension d when its
 * d-group holds no other corrupt line; rebuilding a line only lowers
 * counts, so a solvable line stays solvable until it is rebuilt.
 *
 * next() yields the lowest solvable pending index -- the line the
 * canonical scan "first solvable line in storage order" picks -- so
 * every caller peels in exactly that order.
 */
class Peel
{
  public:
    static constexpr std::size_t kNone = ~std::size_t{0};

    /** key(i, d): label of line i's parity group in dimension d. */
    template <class KeyFn>
    Peel(std::size_t n, u32 dims, KeyFn key)
        : dims_(dims >= 3 ? 3 : dims == 2 ? 2 : 1), pending_(n, 1),
          left_(n)
    {
        std::vector<u64> labels(n);
        for (u32 d = 0; d < dims_; ++d) {
            for (std::size_t i = 0; i < n; ++i)
                labels[i] = key(i, d + 1);
            std::vector<u64> groups = labels;
            std::sort(groups.begin(), groups.end());
            groups.erase(std::unique(groups.begin(), groups.end()),
                         groups.end());
            group_[d].resize(n);
            count_[d].assign(groups.size(), 0);
            members_[d].assign(groups.size(), 0);
            for (std::size_t i = 0; i < n; ++i) {
                const auto g = static_cast<std::size_t>(
                    std::lower_bound(groups.begin(), groups.end(),
                                     labels[i]) -
                    groups.begin());
                group_[d][i] = g;
                ++count_[d][g];
                members_[d][g] ^= i;
            }
        }
        for (std::size_t i = 0; i < n; ++i)
            if (dim(i) != 0)
                ready_.push(i);
    }

    /** Lowest dimension able to rebuild pending line i; 0 if none. */
    u32
    dim(std::size_t i) const
    {
        for (u32 d = 0; d < dims_; ++d)
            if (count_[d][group_[d][i]] == 1)
                return d + 1;
        return 0;
    }

    /** Lowest solvable pending line, or kNone when peeling is stuck.
     *  The caller rebuilds it and calls remove(). */
    std::size_t
    next()
    {
        while (!ready_.empty()) {
            const std::size_t i = ready_.top();
            ready_.pop();
            if (pending_[i])
                return i;
        }
        return kNone;
    }

    /** Line i is rebuilt: any group it leaves with one corrupt line
     *  makes that line solvable. */
    void
    remove(std::size_t i)
    {
        pending_[i] = 0;
        --left_;
        for (u32 d = 0; d < dims_; ++d) {
            const std::size_t g = group_[d][i];
            members_[d][g] ^= i;
            if (--count_[d][g] == 1)
                ready_.push(members_[d][g]);
        }
    }

    bool pending(std::size_t i) const { return pending_[i] != 0; }
    bool done() const { return left_ == 0; }

  private:
    u32 dims_;
    std::vector<std::size_t> group_[3];   ///< Line -> group, per dim.
    std::vector<std::size_t> count_[3];   ///< Corrupt lines per group.
    std::vector<std::size_t> members_[3]; ///< XOR of their indices.
    std::vector<u8> pending_;
    std::size_t left_;
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<>>
        ready_;
};

} // namespace

ParityEngine::ParityEngine(const StackGeometry &geom, u64 seed) : geom_(geom)
{
    geom_.validate();
    if (geom_.stacks != 1)
        fatal("ParityEngine: single-stack geometries only");
    dies_ = geom_.channelsPerStack + 1;

    const u64 lb = geom_.lineBytes;
    golden_.resize(ordinalCount() * lb);
    Rng rng(seed);
    std::for_each(golden_.begin(),
                  golden_.begin() + static_cast<long>(totalLines() * lb),
                  [&](u8 &b) { b = static_cast<u8>(rng.next()); });

    foldSrcs_.reserve(maxGroupLines(dies_, geom_.banksPerChannel,
                                    geom_.rowsPerBank));
    accScratch_.reserve(lb);
    buildParity();
    image_ = golden_;

    crc_.resize(ordinalCount());
    for (u64 o = 0; o < ordinalCount(); ++o)
        crc_[o] = Crc32::lineCrc(o, {goldenPtr(o), geom_.lineBytes});

    isDirty_.assign(ordinalCount(), 0);
    dirty_.reserve(ordinalCount());
}

u64
ParityEngine::modelBytes(const StackGeometry &geom)
{
    const u64 dies = geom.channelsPerStack + 1;
    const u64 cols = geom.linesPerRow();
    const u64 slots = static_cast<u64>(geom.rowsPerBank) * cols;
    const u64 lines = dies * geom.banksPerChannel * slots + slots;
    const u64 folds = (dies + 1 + geom.banksPerChannel) * cols;
    // Per line: live and golden bytes, golden CRC, dirty flag and a
    // dirty-list slot (reserved up front, so this is exact).
    const u64 perLine =
        2ull * geom.lineBytes + sizeof(u32) + sizeof(u8) + sizeof(u64);
    return lines * perLine + folds * geom.lineBytes +
           maxGroupLines(dies, geom.banksPerChannel, geom.rowsPerBank) *
               sizeof(const u8 *) +
           geom.lineBytes;
}

u64
ParityEngine::totalLines() const
{
    return static_cast<u64>(dies_) * geom_.banksPerChannel *
           geom_.rowsPerBank * geom_.linesPerRow();
}

u64
ParityEngine::ordinalCount() const
{
    return totalLines() +
           static_cast<u64>(geom_.rowsPerBank) * geom_.linesPerRow();
}

u64
ParityEngine::lineIndex(DieId die, BankId bank, RowId row, ColId col) const
{
    return ((static_cast<u64>(die.value()) * geom_.banksPerChannel +
             bank.value()) *
                geom_.rowsPerBank +
            row.value()) *
               geom_.linesPerRow() +
           col.value();
}

ParityGroupId
ParityEngine::parityIndex(RowId row, ColId col) const
{
    return ParityGroupId{static_cast<u64>(row.value()) *
                             geom_.linesPerRow() +
                         col.value()};
}

u64
ParityEngine::ordinal(DieId die, BankId bank, RowId row, ColId col) const
{
    if (die == parityDie())
        return totalLines() + parityIndex(row, col).value();
    return lineIndex(die, bank, row, col);
}

u64
ParityEngine::ordinal(const CorruptLine &l) const
{
    return ordinal(l.die, l.bank, l.row, l.col);
}

ParityEngine::CorruptLine
ParityEngine::lineAt(u64 o) const
{
    const u32 cols = geom_.linesPerRow();
    if (o >= totalLines()) {
        const u64 idx = o - totalLines();
        return {parityDie(), BankId{0}, RowId{static_cast<u32>(idx / cols)},
                ColId{static_cast<u32>(idx % cols)}};
    }
    const ColId col{static_cast<u32>(o % cols)};
    o /= cols;
    const RowId row{static_cast<u32>(o % geom_.rowsPerBank)};
    o /= geom_.rowsPerBank;
    const BankId bank{static_cast<u32>(o % geom_.banksPerChannel)};
    return {DieId{static_cast<u32>(o / geom_.banksPerChannel)}, bank, row,
            col};
}

u8 *
ParityEngine::linePtr(u64 o)
{
    return image_.data() + o * geom_.lineBytes;
}

const u8 *
ParityEngine::linePtr(u64 o) const
{
    return image_.data() + o * geom_.lineBytes;
}

const u8 *
ParityEngine::goldenPtr(u64 o) const
{
    return golden_.data() + o * geom_.lineBytes;
}

void
ParityEngine::markDirty(u64 o)
{
    if (isDirty_[o])
        return;
    isDirty_[o] = 1;
    dirty_.push_back(o);
}

void
ParityEngine::writeLine(u64 o, const u8 *bytes)
{
    std::memcpy(linePtr(o), bytes, geom_.lineBytes);
    markDirty(o);
}

bool
ParityEngine::isCorrupt(u64 o) const
{
    return isDirty_[o] &&
           Crc32::lineCrc(o, {linePtr(o), geom_.lineBytes}) != crc_[o];
}

void
ParityEngine::checkCoord(DieId die, BankId bank, RowId row, ColId col) const
{
    const u32 d = die.value();
    const u32 b = bank.value();
    const u32 r = row.value();
    const u32 c = col.value();
    if (d > dies_ || (d == dies_ && b != 0) ||
        (d < dies_ && b >= geom_.banksPerChannel) ||
        r >= geom_.rowsPerBank || c >= geom_.linesPerRow())
        panic("ParityEngine: coordinate (%u, %u, %u, %u) out of range",
              d, b, r, c);
}

void
ParityEngine::buildParity()
{
    const u32 cols = geom_.linesPerRow();
    const u32 lb = geom_.lineBytes;
    const u32 banks = geom_.banksPerChannel;
    const u32 rows = geom_.rowsPerBank;

    parity2_.assign(static_cast<u64>(dies_ + 1) * cols * lb, 0);
    parity3_.assign(static_cast<u64>(banks) * cols * lb, 0);

    auto goldenData = [&](u32 d, u32 b, u32 r, u32 c) {
        return goldenPtr(lineIndex(DieId{d}, BankId{b}, RowId{r}, ColId{c}));
    };

    // Each fold destination gathers its whole group and accumulates it
    // in one xorFoldN pass (XOR is associative and commutative over
    // exact bytes, so regrouping the old per-source loop is
    // byte-identical; tests pin the images).

    // D1: a (row, col) slot folds all its (die, bank) lines into the
    // parity store (zero-initialized by the constructor's resize).
    for (u32 r = 0; r < rows; ++r)
        for (u32 c = 0; c < cols; ++c) {
            foldSrcs_.clear();
            for (u32 d = 0; d < dies_; ++d)
                for (u32 b = 0; b < banks; ++b)
                    foldSrcs_.push_back(goldenData(d, b, r, c));
            xorFoldN(golden_.data() +
                         ordinal(parityDie(), BankId{0}, RowId{r},
                                 ColId{c}) *
                             lb,
                     foldSrcs_.data(), foldSrcs_.size(), lb);
        }

    // D2: a (die, col) fold covers the die's (bank, row) lines.
    for (u32 d = 0; d < dies_; ++d)
        for (u32 c = 0; c < cols; ++c) {
            foldSrcs_.clear();
            for (u32 b = 0; b < banks; ++b)
                for (u32 r = 0; r < rows; ++r)
                    foldSrcs_.push_back(goldenData(d, b, r, c));
            xorFoldN(parity2_.data() +
                         (static_cast<u64>(d) * cols + c) * lb,
                     foldSrcs_.data(), foldSrcs_.size(), lb);
        }

    // D3: a (bank, col) fold covers the bank position's (die, row)
    // lines.
    for (u32 b = 0; b < banks; ++b)
        for (u32 c = 0; c < cols; ++c) {
            foldSrcs_.clear();
            for (u32 d = 0; d < dies_; ++d)
                for (u32 r = 0; r < rows; ++r)
                    foldSrcs_.push_back(goldenData(d, b, r, c));
            xorFoldN(parity3_.data() +
                         (static_cast<u64>(b) * cols + c) * lb,
                     foldSrcs_.data(), foldSrcs_.size(), lb);
        }

    // The parity unit participates in D2 (its own fold, die slot
    // dies_) and in the D3 group of bank position 0.
    for (u32 c = 0; c < cols; ++c) {
        foldSrcs_.clear();
        for (u32 r = 0; r < rows; ++r)
            foldSrcs_.push_back(
                goldenPtr(ordinal(parityDie(), BankId{0}, RowId{r},
                                  ColId{c})));
        xorFoldN(parity2_.data() +
                     (static_cast<u64>(dies_) * cols + c) * lb,
                 foldSrcs_.data(), foldSrcs_.size(), lb);
        xorFoldN(parity3_.data() + static_cast<u64>(c) * lb,
                 foldSrcs_.data(), foldSrcs_.size(), lb);
    }
}

void
ParityEngine::corrupt(const std::vector<Fault> &faults)
{
    // Flip the *union* of covered bits: two faults overlapping on a bit
    // both corrupt it (physical faults do not cancel each other out).
    // Each fault's bit mask is built once. Only the coordinates a
    // fault's specs match are visited, and each covered line is flipped
    // once -- by the first fault covering it, with the OR of the masks
    // of every fault covering it.
    const u32 lb = geom_.lineBytes;
    const std::size_t n = faults.size();
    std::vector<u8> masks(n * lb, 0);
    for (std::size_t i = 0; i < n; ++i)
        forEachMatch(faults[i].bit, geom_.bitsPerLine(), [&](u32 bit) {
            masks[i * lb + bit / 8] |= static_cast<u8>(1u << (bit % 8));
        });

    auto covers = [](const Fault &f, u32 d, u32 b, u32 r, u32 c) {
        return f.channel.matches(d) && f.bank.matches(b) &&
               f.row.matches(r) && f.col.matches(c);
    };
    auto flip = [&](std::size_t i, u32 d, u32 b, u32 r, u32 c) {
        for (std::size_t j = 0; j < i; ++j)
            if (covers(faults[j], d, b, r, c))
                return; // Flipped with fault j's union already.
        accScratch_.assign(masks.begin() + static_cast<long>(i * lb),
                           masks.begin() + static_cast<long>((i + 1) * lb));
        for (std::size_t j = i + 1; j < n; ++j)
            if (covers(faults[j], d, b, r, c))
                for (u32 k = 0; k < lb; ++k)
                    accScratch_[k] |= masks[j * lb + k];
        const u64 o = ordinal(DieId{d}, BankId{b}, RowId{r}, ColId{c});
        u8 *ln = linePtr(o);
        for (u32 k = 0; k < lb; ++k)
            ln[k] ^= accScratch_[k];
        markDirty(o);
    };

    // Die parityDie() addresses the parity store, which has bank 0 only.
    for (std::size_t i = 0; i < n; ++i) {
        const Fault &f = faults[i];
        forEachMatch(f.channel, dies_ + 1, [&](u32 d) {
            forEachMatch(f.bank, d == dies_ ? 1 : geom_.banksPerChannel,
                         [&](u32 b) {
                forEachMatch(f.row, geom_.rowsPerBank, [&](u32 r) {
                    forEachMatch(f.col, geom_.linesPerRow(),
                                 [&](u32 c) { flip(i, d, b, r, c); });
                });
            });
        });
    }
}

void
ParityEngine::fixViaD1(DieId die, BankId bank, RowId row, ColId col)
{
    const u32 lb = geom_.lineBytes;
    const u64 pord = ordinal(parityDie(), BankId{0}, row, col);
    foldSrcs_.clear();
    if (die == parityDie()) {
        // Rebuild the parity line itself from all data units.
        accScratch_.assign(lb, 0);
        for (u32 d = 0; d < dies_; ++d)
            for (u32 b = 0; b < geom_.banksPerChannel; ++b)
                foldSrcs_.push_back(
                    linePtr(lineIndex(DieId{d}, BankId{b}, row, col)));
        xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
        writeLine(pord, accScratch_.data());
        return;
    }
    accScratch_.assign(linePtr(pord), linePtr(pord) + lb);
    for (u32 d = 0; d < dies_; ++d)
        for (u32 b = 0; b < geom_.banksPerChannel; ++b) {
            const DieId dd{d};
            const BankId bb{b};
            if (dd == die && bb == bank)
                continue;
            foldSrcs_.push_back(linePtr(lineIndex(dd, bb, row, col)));
        }
    xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
    writeLine(lineIndex(die, bank, row, col), accScratch_.data());
}

void
ParityEngine::fixViaD2(DieId die, BankId bank, RowId row, ColId col)
{
    const u32 lb = geom_.lineBytes;
    const u64 fold =
        static_cast<u64>(die.value()) * geom_.linesPerRow() + col.value();
    accScratch_.assign(parity2_.begin() + static_cast<long>(fold * lb),
                       parity2_.begin() + static_cast<long>((fold + 1) * lb));
    foldSrcs_.clear();
    if (die == parityDie()) {
        // Parity unit: its D2 fold covers the parity rows only.
        for (u32 r = 0; r < geom_.rowsPerBank; ++r) {
            const RowId rr{r};
            if (rr == row)
                continue;
            foldSrcs_.push_back(linePtr(ordinal(die, bank, rr, col)));
        }
    } else {
        for (u32 b = 0; b < geom_.banksPerChannel; ++b)
            for (u32 r = 0; r < geom_.rowsPerBank; ++r) {
                const BankId bb{b};
                const RowId rr{r};
                if (bb == bank && rr == row)
                    continue;
                foldSrcs_.push_back(linePtr(lineIndex(die, bb, rr, col)));
            }
    }
    xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
    writeLine(ordinal(die, bank, row, col), accScratch_.data());
}

void
ParityEngine::fixViaD3(DieId die, BankId bank, RowId row, ColId col)
{
    const u32 lb = geom_.lineBytes;
    const u64 fold =
        static_cast<u64>(bank.value()) * geom_.linesPerRow() + col.value();
    accScratch_.assign(parity3_.begin() + static_cast<long>(fold * lb),
                       parity3_.begin() + static_cast<long>((fold + 1) * lb));
    foldSrcs_.clear();
    for (u32 d = 0; d < dies_; ++d)
        for (u32 r = 0; r < geom_.rowsPerBank; ++r) {
            const DieId dd{d};
            const RowId rr{r};
            if (dd == die && rr == row)
                continue;
            foldSrcs_.push_back(linePtr(lineIndex(dd, bank, rr, col)));
        }
    if (bank == BankId{0}) {
        // Bank position 0's group includes the parity unit's rows.
        for (u32 r = 0; r < geom_.rowsPerBank; ++r) {
            const RowId rr{r};
            if (die == parityDie() && rr == row)
                continue;
            foldSrcs_.push_back(
                linePtr(ordinal(parityDie(), BankId{0}, rr, col)));
        }
    }
    xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
    writeLine(ordinal(die, bank, row, col), accScratch_.data());
}

u64
ParityEngine::corruptLineCount() const
{
    return static_cast<u64>(
        std::count_if(dirty_.begin(), dirty_.end(),
                      [&](u64 o) { return isCorrupt(o); }));
}

std::vector<ParityEngine::CorruptLine>
ParityEngine::collectCorrupt() const
{
    // Ordinal order is the canonical order: storage order puts data
    // lines die, bank, row, col-major, and parity lines follow them.
    std::vector<u64> ords;
    for (u64 o : dirty_)
        if (isCorrupt(o))
            ords.push_back(o);
    std::sort(ords.begin(), ords.end());
    std::vector<CorruptLine> corrupt;
    corrupt.reserve(ords.size());
    for (u64 o : ords)
        corrupt.push_back(lineAt(o));
    return corrupt;
}

u64
ParityEngine::groupKey(const CorruptLine &l, u32 dim) const
{
    // The parity unit is die dies_ at bank 0: one more member of its
    // (row, col) D1 group, its own D2 fold, and part of bank 0's D3.
    const u64 cols = geom_.linesPerRow();
    switch (dim) {
      case 1:
        return parityIndex(l.row, l.col).value();
      case 2:
        return l.die.value() * cols + l.col.value();
      default:
        return l.bank.value() * cols + l.col.value();
    }
}

void
ParityEngine::fixLine(const CorruptLine &L, u32 dim)
{
    switch (dim) {
      case 1:
        fixViaD1(L.die, L.bank, L.row, L.col);
        break;
      case 2:
        fixViaD2(L.die, L.bank, L.row, L.col);
        break;
      case 3:
        fixViaD3(L.die, L.bank, L.row, L.col);
        break;
      default:
        panic("ParityEngine: bad fix dimension %u", dim);
    }
    if (isCorrupt(ordinal(L)))
        panic("ParityEngine: reconstruction produced bad CRC");
}

u32
ParityEngine::groupReadCost(const CorruptLine &L, u32 dim) const
{
    // DRAM line reads needed to XOR out the target: every other line of
    // the parity group that lives in DRAM (D2/D3 parity itself is SRAM
    // at the controller, Section VI-B, so it costs no DRAM read).
    const u32 banks = geom_.banksPerChannel;
    const u32 rows = geom_.rowsPerBank;
    switch (dim) {
      case 1:
        // Group: dies_ x banks data lines + 1 parity line; read all
        // but the target.
        return dies_ * banks;
      case 2:
        return L.die == parityDie() ? rows - 1 : banks * rows - 1;
      case 3:
        return L.bank == BankId{0} ? (dies_ + 1) * rows - 1
                                   : dies_ * rows - 1;
      default:
        return 0;
    }
}

bool
ParityEngine::reconstruct(u32 dims)
{
    const std::vector<CorruptLine> corrupt = collectCorrupt();
    Peel peel(corrupt.size(), dims, [&](std::size_t i, u32 d) {
        return groupKey(corrupt[i], d);
    });
    for (std::size_t i; (i = peel.next()) != Peel::kNone;) {
        fixLine(corrupt[i], peel.dim(i));
        peel.remove(i);
    }
    if (!peel.done())
        return false;
    return std::all_of(dirty_.begin(), dirty_.end(), [&](u64 o) {
        return std::memcmp(linePtr(o), goldenPtr(o), geom_.lineBytes) == 0;
    });
}

bool
ParityEngine::peelable(u32 dims) const
{
    const std::vector<CorruptLine> corrupt = collectCorrupt();
    Peel peel(corrupt.size(), dims, [&](std::size_t i, u32 d) {
        return groupKey(corrupt[i], d);
    });
    for (std::size_t i; (i = peel.next()) != Peel::kNone;)
        peel.remove(i);
    return peel.done();
}

bool
ParityEngine::lineCorruptAt(DieId die, BankId bank, RowId row,
                            ColId col) const
{
    checkCoord(die, bank, row, col);
    return isCorrupt(ordinal(die, bank, row, col));
}

bool
ParityEngine::lineMatchesGolden(DieId die, BankId bank, RowId row,
                                ColId col) const
{
    checkCoord(die, bank, row, col);
    const u64 o = ordinal(die, bank, row, col);
    return !isDirty_[o] ||
           std::memcmp(linePtr(o), goldenPtr(o), geom_.lineBytes) == 0;
}

std::span<const u8>
ParityEngine::lineData(DieId die, BankId bank, RowId row, ColId col) const
{
    checkCoord(die, bank, row, col);
    return {linePtr(ordinal(die, bank, row, col)), geom_.lineBytes};
}

ParityEngine::DemandFix
ParityEngine::correctLine(DieId die, BankId bank, RowId row, ColId col,
                          u32 dims)
{
    checkCoord(die, bank, row, col);
    DemandFix fix;
    const CorruptLine target{die, bank, row, col};
    if (!isCorrupt(ordinal(target))) {
        fix.corrected = true;
        return fix;
    }

    const std::vector<CorruptLine> corrupt = collectCorrupt();
    const auto t = static_cast<std::size_t>(
        std::find(corrupt.begin(), corrupt.end(), target) - corrupt.begin());
    Peel peel(corrupt.size(), dims, [&](std::size_t i, u32 d) {
        return groupKey(corrupt[i], d);
    });

    // Prefer solving the target directly; otherwise peel the first
    // solvable dependency in canonical order and retry.
    while (peel.pending(t)) {
        const std::size_t pick = peel.dim(t) != 0 ? t : peel.next();
        if (pick == Peel::kNone)
            break;
        const u32 dim = peel.dim(pick);
        fixLine(corrupt[pick], dim);
        fix.groupReads += groupReadCost(corrupt[pick], dim);
        ++fix.linesFixed;
        if (pick == t)
            fix.dimUsed = dim;
        peel.remove(pick);
    }

    fix.corrected = !peel.pending(t);
    return fix;
}

void
ParityEngine::restore()
{
    for (u64 o : dirty_) {
        std::memcpy(linePtr(o), goldenPtr(o), geom_.lineBytes);
        isDirty_[o] = 0;
    }
    dirty_.clear();
}

} // namespace citadel
