// Text serialization for latency matrices so users can plug in real
// measurements (e.g. actual PlanetLab ping data) in place of the synthetic
// generators.
//
// Format (whitespace-separated, '#' comments allowed):
//   line 1: N (a decimal integer, 1 <= N <= kMaxMatrixSites)
//   line 2: N site names (tokens without whitespace)  [optional]
//   then:   N rows of N RTT values in milliseconds, and nothing after them
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "net/latency_matrix.hpp"

namespace qp::net {

/// Largest site count read_matrix accepts: a dense matrix of this size is
/// already 20 GB.
inline constexpr std::size_t kMaxMatrixSites = 50'000;

/// Parses the format above. Throws std::runtime_error with a line-oriented
/// message on malformed input, including a site count that is not an
/// integer in [1, kMaxMatrixSites] and trailing tokens after the body.
[[nodiscard]] LatencyMatrix read_matrix(std::istream& in);

/// Loads from a file path; throws std::runtime_error if unreadable.
[[nodiscard]] LatencyMatrix read_matrix_file(const std::string& path);

/// Writes the matrix (with names) in the same format.
void write_matrix(std::ostream& out, const LatencyMatrix& matrix);

void write_matrix_file(const std::string& path, const LatencyMatrix& matrix);

}  // namespace qp::net
