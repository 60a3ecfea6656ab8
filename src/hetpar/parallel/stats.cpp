#include "hetpar/parallel/stats.hpp"

#include "hetpar/support/strings.hpp"

namespace hetpar::parallel {

std::string IlpStatistics::summary() const {
  std::string text =
      strings::format("%lld ILPs, %s vars, %s constraints, %s bnb nodes, %.2fs",
                      numIlps, strings::formatThousands(numVars).c_str(),
                      strings::formatThousands(numConstraints).c_str(),
                      strings::formatThousands(bnbNodes).c_str(), wallSeconds);
  if (simplexIterations > 0)
    text += strings::format(", %s simplex iters (%lld refactor, %lld eta, %s peak fill)",
                            strings::formatThousands(simplexIterations).c_str(),
                            refactorizations, etaUpdates,
                            strings::formatThousands(peakFillNonzeros).c_str());
  if (cacheHits + cacheMisses > 0)
    text += strings::format(", %lld cache hits / %lld misses", cacheHits, cacheMisses);
  if (unprovenSolves > 0) text += strings::format(", %lld unproven", unprovenSolves);
  return text;
}

}  // namespace hetpar::parallel
