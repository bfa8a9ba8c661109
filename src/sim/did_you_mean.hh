/**
 * @file
 * Did-you-mean hints for misspelled names: bench flags, fault-scenario
 * keywords and routing modes all suggest through this one function.
 */

#ifndef SONUMA_SIM_DID_YOU_MEAN_HH
#define SONUMA_SIM_DID_YOU_MEAN_HH

#include <string>
#include <vector>

namespace sonuma::sim {

/**
 * The candidate closest to @p name by Levenshtein distance, if that
 * distance is at most 3; otherwise "". Ties go to the earlier
 * candidate.
 */
std::string closestMatch(const std::string &name,
                         const std::vector<std::string> &candidates);

} // namespace sonuma::sim

#endif // SONUMA_SIM_DID_YOU_MEAN_HH
