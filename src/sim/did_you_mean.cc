/**
 * @file
 * Did-you-mean matching.
 */

#include "sim/did_you_mean.hh"

#include <algorithm>

namespace sonuma::sim {

namespace {

/** Levenshtein distance, one row at a time. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            row[j] = std::min({up + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

} // namespace

std::string
closestMatch(const std::string &name,
             const std::vector<std::string> &candidates)
{
    std::string best;
    std::size_t bestDist = 4; // suggest only close misspellings
    for (const auto &cand : candidates) {
        const std::size_t d = editDistance(name, cand);
        if (d < bestDist) {
            bestDist = d;
            best = cand;
        }
    }
    return best;
}

} // namespace sonuma::sim
