// Tests for the extension features: the ASCII plotter.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "support/ascii_plot.hpp"
#include "support/check.hpp"

namespace cdpf {
namespace {

// -------------------------------------------------------------- ascii plot
TEST(AsciiPlot, RendersPointsInsideWindowOnly) {
  support::AsciiPlot plot(0.0, 10.0, 0.0, 10.0, 20, 10);
  plot.point(5.0, 5.0, '*');
  plot.point(50.0, 5.0, 'X');  // outside: ignored
  const std::string out = plot.render();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_EQ(out.find('X'), std::string::npos);
}

TEST(AsciiPlot, PolylineConnectsPoints) {
  support::AsciiPlot plot(0.0, 100.0, 0.0, 100.0, 50, 20);
  plot.polyline({{0.0, 50.0}, {100.0, 50.0}}, '-');
  const std::string out = plot.render();
  // A horizontal line leaves a long run of '-' glyphs.
  EXPECT_GT(std::count(out.begin(), out.end(), '-'), 40);
}

TEST(AsciiPlot, InvalidWindowRejected) {
  EXPECT_THROW(support::AsciiPlot(10.0, 0.0, 0.0, 10.0), Error);
  EXPECT_THROW(support::AsciiPlot(0.0, 10.0, 0.0, 10.0, 1, 1), Error);
}

}  // namespace
}  // namespace cdpf
