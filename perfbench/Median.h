//===- Median.h - Median of benchmark samples -------------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#ifndef CLOSER_PERFBENCH_MEDIAN_H
#define CLOSER_PERFBENCH_MEDIAN_H

#include <algorithm>
#include <vector>

namespace perfbench {

/// The median of \p V (the mean of the two middle samples for an even
/// count); 0 for no samples.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2;
}

} // namespace perfbench

#endif // CLOSER_PERFBENCH_MEDIAN_H
