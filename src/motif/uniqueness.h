#ifndef LAMO_MOTIF_UNIQUENESS_H_
#define LAMO_MOTIF_UNIQUENESS_H_

#include <vector>

#include "motif/motif.h"

namespace lamo {

/// Keeps only motifs with uniqueness >= `threshold` (the paper keeps
/// > 0.95). Uniqueness s(g) is the fraction of degree-preserving randomized
/// networks in which g's real-network frequency is greater than or equal to
/// its frequency in the randomized network [Milo et al. 2002; Section 5.1
/// of the paper]; FindNetworkMotifsEsu (esu_finder.h) scores it.
std::vector<Motif> FilterUnique(std::vector<Motif> motifs, double threshold);

}  // namespace lamo

#endif  // LAMO_MOTIF_UNIQUENESS_H_
