#include "motif/uniqueness.h"

#include <algorithm>

namespace lamo {

std::vector<Motif> FilterUnique(std::vector<Motif> motifs, double threshold) {
  motifs.erase(std::remove_if(motifs.begin(), motifs.end(),
                              [&](const Motif& m) {
                                return m.uniqueness < threshold;
                              }),
               motifs.end());
  return motifs;
}

}  // namespace lamo
