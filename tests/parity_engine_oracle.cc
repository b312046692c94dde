#include "parity_engine_oracle.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "common/rng.h"
#include "common/xor_fold.h"
#include "ecc/crc32.h"

namespace citadel {
namespace oracle {

ParityEngine::ParityEngine(const StackGeometry &geom, u64 seed) : geom_(geom)
{
    geom_.validate();
    if (geom_.stacks != 1)
        fatal("ParityEngine: single-stack geometries only");
    dies_ = geom_.channelsPerStack + 1;

    const u64 bytes = static_cast<u64>(dies_) * geom_.banksPerChannel *
                      geom_.rowsPerBank * geom_.rowBytes;
    data_.resize(bytes);
    Rng rng(seed);
    for (auto &b : data_)
        b = static_cast<u8>(rng.next());
    golden_ = data_;

    crc_.resize(totalLines());
    for (u64 l = 0; l < totalLines(); ++l)
        crc_[l] = Crc32::lineCrc(l, {linePtr(golden_, l), geom_.lineBytes});

    buildParity();
}

u64
ParityEngine::totalLines() const
{
    return static_cast<u64>(dies_) * geom_.banksPerChannel *
           geom_.rowsPerBank * geom_.linesPerRow();
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

u8 *
ParityEngine::linePtr(std::vector<u8> &buf, u64 storage_line)
{
    return buf.data() + storage_line * geom_.lineBytes;
}

const u8 *
ParityEngine::linePtr(const std::vector<u8> &buf, u64 storage_line) const
{
    return buf.data() + storage_line * geom_.lineBytes;
}

u32
ParityEngine::computeCrc(u64 storage_line) const
{
    return Crc32::lineCrc(storage_line,
                          {linePtr(data_, storage_line), geom_.lineBytes});
}

bool
ParityEngine::lineCorrupt(u64 storage_line) const
{
    return computeCrc(storage_line) != crc_[storage_line];
}

bool
ParityEngine::parityLineCorrupt(RowId row, ColId col) const
{
    const u64 idx = parityIndex(row, col).value();
    // Parity lines get CRC addresses above the data line space so a
    // misdirected read can never alias a data CRC.
    const u32 crc = Crc32::lineCrc(totalLines() + idx,
                                   {linePtr(parity1_, idx),
                                    geom_.lineBytes});
    return crc != parityCrc_[idx];
}

bool
ParityEngine::isCorrupt(const CorruptLine &l) const
{
    if (l.die == parityDie())
        return parityLineCorrupt(l.row, l.col);
    return lineCorrupt(lineIndex(l.die, l.bank, l.row, l.col));
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

    parity1_.assign(static_cast<u64>(rows) * cols * lb, 0);
    parity2_.assign(static_cast<u64>(dies_ + 1) * cols * lb, 0);
    parity3_.assign(static_cast<u64>(banks) * cols * lb, 0);

    // Each fold destination gathers its whole group and accumulates it
    // in one xorFoldN pass (XOR is associative and commutative over
    // exact bytes, so regrouping the old per-source loop is
    // byte-identical; tests pin the images).

    // D1: a (row, col) slot folds all its (die, bank) lines.
    for (u32 r = 0; r < rows; ++r)
        for (u32 c = 0; c < cols; ++c) {
            foldSrcs_.clear();
            for (u32 d = 0; d < dies_; ++d)
                for (u32 b = 0; b < banks; ++b)
                    foldSrcs_.push_back(linePtr(
                        golden_, lineIndex(DieId{d}, BankId{b}, RowId{r},
                                           ColId{c})));
            xorFoldN(parity1_.data() +
                         (static_cast<u64>(r) * cols + c) * lb,
                     foldSrcs_.data(), foldSrcs_.size(), lb);
        }

    // D2: a (die, col) fold covers the die's (bank, row) lines.
    for (u32 d = 0; d < dies_; ++d)
        for (u32 c = 0; c < cols; ++c) {
            foldSrcs_.clear();
            for (u32 b = 0; b < banks; ++b)
                for (u32 r = 0; r < rows; ++r)
                    foldSrcs_.push_back(linePtr(
                        golden_, lineIndex(DieId{d}, BankId{b}, RowId{r},
                                           ColId{c})));
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
                    foldSrcs_.push_back(linePtr(
                        golden_, lineIndex(DieId{d}, BankId{b}, RowId{r},
                                           ColId{c})));
            xorFoldN(parity3_.data() +
                         (static_cast<u64>(b) * cols + c) * lb,
                     foldSrcs_.data(), foldSrcs_.size(), lb);
        }

    goldenParity1_ = parity1_;
    parityCrc_.resize(static_cast<u64>(rows) * cols);
    for (u32 r = 0; r < rows; ++r)
        for (u32 c = 0; c < cols; ++c) {
            const u64 idx = parityIndex(RowId{r}, ColId{c}).value();
            parityCrc_[idx] =
                Crc32::lineCrc(totalLines() + idx,
                               {linePtr(goldenParity1_, idx), lb});
        }

    // The parity unit participates in D2 (its own fold, die slot
    // dies_) and in the D3 group of bank position 0.
    for (u32 c = 0; c < cols; ++c) {
        foldSrcs_.clear();
        for (u32 r = 0; r < rows; ++r)
            foldSrcs_.push_back(linePtr(
                goldenParity1_, parityIndex(RowId{r}, ColId{c}).value()));
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
    const u32 cols = geom_.linesPerRow();
    auto flipCovered = [&](u32 d, u32 b, u32 r, u32 c, u8 *ln) {
        bool any = false;
        for (const Fault &f : faults)
            if (f.channel.matches(d) && f.bank.matches(b) &&
                f.row.matches(r) && f.col.matches(c)) {
                any = true;
                break;
            }
        if (!any)
            return;
        for (u32 bit = 0; bit < geom_.bitsPerLine(); ++bit) {
            bool covered = false;
            for (const Fault &f : faults)
                if (f.channel.matches(d) && f.bank.matches(b) &&
                    f.row.matches(r) && f.col.matches(c) &&
                    f.bit.matches(bit)) {
                    covered = true;
                    break;
                }
            if (covered)
                ln[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        }
    };

    for (u32 d = 0; d < dies_; ++d)
        for (u32 b = 0; b < geom_.banksPerChannel; ++b)
            for (u32 r = 0; r < geom_.rowsPerBank; ++r)
                for (u32 c = 0; c < cols; ++c)
                    flipCovered(d, b, r, c,
                                linePtr(data_,
                                        lineIndex(DieId{d}, BankId{b},
                                                  RowId{r}, ColId{c})));

    // The parity store is addressed as die parityDie(), bank 0.
    for (u32 r = 0; r < geom_.rowsPerBank; ++r)
        for (u32 c = 0; c < cols; ++c)
            flipCovered(dies_, 0, r, c,
                        linePtr(parity1_,
                                parityIndex(RowId{r}, ColId{c}).value()));
}

void
ParityEngine::fixViaD1(DieId die, BankId bank, RowId row, ColId col)
{
    const u32 lb = geom_.lineBytes;
    const u64 pidx = parityIndex(row, col).value();
    if (die == parityDie()) {
        // Rebuild the parity line itself from all data units.
        accScratch_.assign(lb, 0);
        foldSrcs_.clear();
        for (u32 d = 0; d < dies_; ++d)
            for (u32 b = 0; b < geom_.banksPerChannel; ++b)
                foldSrcs_.push_back(
                    linePtr(data_, lineIndex(DieId{d}, BankId{b}, row, col)));
        xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
        std::memcpy(linePtr(parity1_, pidx), accScratch_.data(), lb);
        return;
    }
    accScratch_.assign(parity1_.begin() + static_cast<long>(pidx * lb),
                       parity1_.begin() + static_cast<long>((pidx + 1) * lb));
    foldSrcs_.clear();
    for (u32 d = 0; d < dies_; ++d)
        for (u32 b = 0; b < geom_.banksPerChannel; ++b) {
            const DieId dd{d};
            const BankId bb{b};
            if (dd == die && bb == bank)
                continue;
            foldSrcs_.push_back(linePtr(data_, lineIndex(dd, bb, row, col)));
        }
    xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
    std::memcpy(linePtr(data_, lineIndex(die, bank, row, col)),
                accScratch_.data(), lb);
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
            foldSrcs_.push_back(
                linePtr(parity1_, parityIndex(rr, col).value()));
        }
        xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
        std::memcpy(linePtr(parity1_, parityIndex(row, col).value()),
                    accScratch_.data(), lb);
        return;
    }
    for (u32 b = 0; b < geom_.banksPerChannel; ++b)
        for (u32 r = 0; r < geom_.rowsPerBank; ++r) {
            const BankId bb{b};
            const RowId rr{r};
            if (bb == bank && rr == row)
                continue;
            foldSrcs_.push_back(linePtr(data_, lineIndex(die, bb, rr, col)));
        }
    xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
    std::memcpy(linePtr(data_, lineIndex(die, bank, row, col)),
                accScratch_.data(), lb);
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
            foldSrcs_.push_back(linePtr(data_, lineIndex(dd, bank, rr, col)));
        }
    if (bank == BankId{0}) {
        // Bank position 0's group includes the parity unit's rows.
        for (u32 r = 0; r < geom_.rowsPerBank; ++r) {
            const RowId rr{r};
            if (die == parityDie() && rr == row)
                continue;
            foldSrcs_.push_back(
                linePtr(parity1_, parityIndex(rr, col).value()));
        }
    }
    xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
    u8 *dst = die == parityDie()
                  ? linePtr(parity1_, parityIndex(row, col).value())
                  : linePtr(data_, lineIndex(die, bank, row, col));
    std::memcpy(dst, accScratch_.data(), lb);
}

u64
ParityEngine::corruptLineCount() const
{
    u64 n = 0;
    for (u64 l = 0; l < totalLines(); ++l)
        if (lineCorrupt(l))
            ++n;
    for (u32 r = 0; r < geom_.rowsPerBank; ++r)
        for (u32 c = 0; c < geom_.linesPerRow(); ++c)
            if (parityLineCorrupt(RowId{r}, ColId{c}))
                ++n;
    return n;
}

std::vector<ParityEngine::CorruptLine>
ParityEngine::collectCorrupt() const
{
    const u32 cols = geom_.linesPerRow();
    std::vector<CorruptLine> corrupt;
    for (u32 d = 0; d < dies_; ++d)
        for (u32 b = 0; b < geom_.banksPerChannel; ++b)
            for (u32 r = 0; r < geom_.rowsPerBank; ++r)
                for (u32 c = 0; c < cols; ++c) {
                    const CorruptLine l{DieId{d}, BankId{b}, RowId{r},
                                        ColId{c}};
                    if (lineCorrupt(lineIndex(l.die, l.bank, l.row,
                                              l.col)))
                        corrupt.push_back(l);
                }
    for (u32 r = 0; r < geom_.rowsPerBank; ++r)
        for (u32 c = 0; c < cols; ++c)
            if (parityLineCorrupt(RowId{r}, ColId{c}))
                corrupt.push_back(
                    {parityDie(), BankId{0}, RowId{r}, ColId{c}});
    return corrupt;
}

u32
ParityEngine::peelDim(const CorruptLine &L,
                      const std::vector<CorruptLine> &corrupt,
                      u32 dims) const
{
    // D1: only unknown (die, bank) unit in its (row, col) group? The
    // parity unit (die dies_, bank 0) is one more group member.
    u32 units = 0;
    for (const auto &o : corrupt)
        if (o.row == L.row && o.col == L.col &&
            !(o.die == L.die && o.bank == L.bank))
            ++units;
    if (units == 0)
        return 1;

    if (dims >= 2) {
        // D2: only unknown (bank, row) slice of its die at col?
        u32 slices = 0;
        for (const auto &o : corrupt)
            if (o.die == L.die && o.col == L.col &&
                !(o.bank == L.bank && o.row == L.row))
                ++slices;
        if (slices == 0)
            return 2;
    }

    if (dims >= 3) {
        // D3: only unknown (die, row) slice of its bank position at
        // col? Bank position 0 includes the parity unit.
        u32 s3 = 0;
        for (const auto &o : corrupt)
            if (o.bank == L.bank && o.col == L.col &&
                !(o.die == L.die && o.row == L.row))
                ++s3;
        if (s3 == 0)
            return 3;
    }
    return 0;
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
    if (isCorrupt(L))
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
    std::vector<CorruptLine> corrupt = collectCorrupt();

    bool progress = true;
    while (progress && !corrupt.empty()) {
        progress = false;
        for (std::size_t i = 0; i < corrupt.size(); ++i) {
            const u32 dim = peelDim(corrupt[i], corrupt, dims);
            if (dim == 0)
                continue;
            fixLine(corrupt[i], dim);
            corrupt.erase(corrupt.begin() + static_cast<long>(i));
            progress = true;
            break;
        }
    }

    return corrupt.empty() && data_ == golden_ &&
           parity1_ == goldenParity1_;
}

bool
ParityEngine::peelable(u32 dims) const
{
    std::vector<CorruptLine> corrupt = collectCorrupt();
    bool progress = true;
    while (progress && !corrupt.empty()) {
        progress = false;
        for (std::size_t i = 0; i < corrupt.size(); ++i) {
            if (peelDim(corrupt[i], corrupt, dims) == 0)
                continue;
            corrupt.erase(corrupt.begin() + static_cast<long>(i));
            progress = true;
            break;
        }
    }
    return corrupt.empty();
}

bool
ParityEngine::lineCorruptAt(DieId die, BankId bank, RowId row,
                            ColId col) const
{
    checkCoord(die, bank, row, col);
    return isCorrupt({die, bank, row, col});
}

bool
ParityEngine::lineMatchesGolden(DieId die, BankId bank, RowId row,
                                ColId col) const
{
    checkCoord(die, bank, row, col);
    const u32 lb = geom_.lineBytes;
    if (die == parityDie()) {
        const u64 idx = parityIndex(row, col).value();
        return std::memcmp(linePtr(parity1_, idx),
                           linePtr(goldenParity1_, idx), lb) == 0;
    }
    const u64 idx = lineIndex(die, bank, row, col);
    return std::memcmp(linePtr(data_, idx), linePtr(golden_, idx), lb) ==
           0;
}

std::span<const u8>
ParityEngine::lineData(DieId die, BankId bank, RowId row, ColId col) const
{
    checkCoord(die, bank, row, col);
    if (die == parityDie())
        return {linePtr(parity1_, parityIndex(row, col).value()),
                geom_.lineBytes};
    return {linePtr(data_, lineIndex(die, bank, row, col)),
            geom_.lineBytes};
}

ParityEngine::DemandFix
ParityEngine::correctLine(DieId die, BankId bank, RowId row, ColId col,
                          u32 dims)
{
    checkCoord(die, bank, row, col);
    DemandFix fix;
    const CorruptLine target{die, bank, row, col};
    if (!isCorrupt(target)) {
        fix.corrected = true;
        return fix;
    }

    std::vector<CorruptLine> corrupt = collectCorrupt();
    auto targetPending = [&] {
        return std::find(corrupt.begin(), corrupt.end(), target) !=
               corrupt.end();
    };

    bool progress = true;
    while (progress && targetPending()) {
        progress = false;
        // Prefer solving the target directly; otherwise peel any
        // solvable dependency and retry.
        std::size_t pick = corrupt.size();
        u32 pick_dim = 0;
        for (std::size_t i = 0; i < corrupt.size(); ++i) {
            const u32 dim = peelDim(corrupt[i], corrupt, dims);
            if (dim == 0)
                continue;
            if (corrupt[i] == target) {
                pick = i;
                pick_dim = dim;
                break;
            }
            if (pick == corrupt.size()) {
                pick = i;
                pick_dim = dim;
            }
        }
        if (pick == corrupt.size())
            break;
        fixLine(corrupt[pick], pick_dim);
        fix.groupReads += groupReadCost(corrupt[pick], pick_dim);
        ++fix.linesFixed;
        if (corrupt[pick] == target)
            fix.dimUsed = pick_dim;
        corrupt.erase(corrupt.begin() + static_cast<long>(pick));
        progress = true;
    }

    fix.corrected = !targetPending();
    return fix;
}

void
ParityEngine::restore()
{
    data_ = golden_;
    parity1_ = goldenParity1_;
}

} // namespace oracle
} // namespace citadel
