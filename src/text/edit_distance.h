#ifndef KJOIN_TEXT_EDIT_DISTANCE_H_
#define KJOIN_TEXT_EDIT_DISTANCE_H_

// Levenshtein edit distance and normalized edit similarity.
//
// K-Join+ uses edit similarity as the mapping confidence φ(e, e') when a
// typo-carrying element approximately matches a knowledge-base node:
// φ = 1 − ED(x, y) / max(|x|, |y|) (paper §2.1.1). The FastJoin baseline
// uses the same quantity between tokens.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace kjoin {

// Plain O(|x|·|y|) Levenshtein distance with two rolling rows.
int EditDistance(std::string_view x, std::string_view y);

// Banded computation: returns the exact distance if it is <= max_distance,
// otherwise any value > max_distance. O(max_distance · min(|x|,|y|)).
int EditDistanceBounded(std::string_view x, std::string_view y, int max_distance);

// 1 − ED / max(|x|, |y|); both empty => 1.
double EditSimilarity(std::string_view x, std::string_view y);

// EditSimilarity of two strings of these lengths, not both 0, whose edit
// distance is `distance`: the same double EditSimilarity returns.
double EditSimilarityOfDistance(int distance, size_t x_length, size_t y_length);

// True iff EditSimilarity(x, y) >= threshold, computed with the banded
// algorithm (the common fast path for filters).
bool EditSimilarityAtLeast(std::string_view x, std::string_view y, double threshold);

// The largest edit distance compatible with similarity >= threshold for
// strings whose longer side has length max_len:
// floor((1 − threshold) · max_len).
int MaxEditErrors(int max_len, double threshold);

}  // namespace kjoin

#endif  // KJOIN_TEXT_EDIT_DISTANCE_H_
