// Tests for the synthetic GreenOrbs trace and trace IO (trace/*).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "trace/greenorbs.hpp"
#include "trace/trace_io.hpp"

namespace cps::trace {
namespace {

GreenOrbsConfig small_config() {
  GreenOrbsConfig cfg;
  cfg.gap_count = 5;
  return cfg;
}

TEST(Minutes, Conversion) {
  EXPECT_DOUBLE_EQ(minutes(10, 0), 600.0);
  EXPECT_DOUBLE_EQ(minutes(0, 45), 45.0);
  EXPECT_DOUBLE_EQ(minutes(17, 30), 1050.0);
}

TEST(GreenOrbsField, DeterministicForSeed) {
  const GreenOrbsField a(small_config());
  const GreenOrbsField b(small_config());
  for (int i = 0; i < 50; ++i) {
    const geo::Vec2 p{i * 1.7, i * 2.3};
    EXPECT_DOUBLE_EQ(a.value(p, 600.0), b.value(p, 600.0));
  }
}

TEST(GreenOrbsField, DifferentSeedsDiffer) {
  GreenOrbsConfig c1 = small_config();
  GreenOrbsConfig c2 = small_config();
  c2.seed = 99;
  const GreenOrbsField a(c1);
  const GreenOrbsField b(c2);
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.value({i * 5.0, i * 4.0}, 600.0) ==
        b.value({i * 5.0, i * 4.0}, 600.0)) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(GreenOrbsField, DarkBeforeSunriseAfterSunset) {
  const GreenOrbsField f(small_config());
  EXPECT_DOUBLE_EQ(f.value({50.0, 50.0}, minutes(3, 0)), 0.0);
  EXPECT_DOUBLE_EQ(f.value({50.0, 50.0}, minutes(22, 0)), 0.0);
  EXPECT_GT(f.value({50.0, 50.0}, minutes(12, 0)), 0.0);
}

TEST(GreenOrbsField, EnvelopePeaksAtSolarNoon) {
  const GreenOrbsField f(small_config());
  const double noon = (f.config().sunrise + f.config().sunset) / 2.0;
  EXPECT_NEAR(f.envelope(noon), 1.0, 1e-12);
  EXPECT_LT(f.envelope(minutes(8, 0)), 1.0);
  EXPECT_DOUBLE_EQ(f.envelope(f.config().sunrise), 0.0);
}

TEST(GreenOrbsField, NeverNegative) {
  const GreenOrbsField f(small_config());
  for (int i = 0; i < 500; ++i) {
    const geo::Vec2 p{std::fmod(i * 13.7, 100.0), std::fmod(i * 7.1, 100.0)};
    ASSERT_GE(f.value(p, 500.0 + i), 0.0);
  }
}

TEST(GreenOrbsField, HasSpatialStructureAtMidday) {
  const GreenOrbsField f(small_config());
  double lo = 1e9;
  double hi = -1e9;
  for (int i = 0; i <= 20; ++i) {
    for (int j = 0; j <= 20; ++j) {
      const double v = f.value({i * 5.0, j * 5.0}, 600.0);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  EXPECT_GT(hi, 2.0 * std::max(lo, 0.1));  // Bright gaps over dim floor.
}

TEST(GreenOrbsField, TimeVariationIsGradual) {
  const GreenOrbsField f(small_config());
  const geo::Vec2 p{37.0, 61.0};
  const double v0 = f.value(p, 600.0);
  const double v1 = f.value(p, 601.0);   // One minute later.
  const double v60 = f.value(p, 660.0);  // One hour later.
  EXPECT_LT(std::abs(v1 - v0), 0.5);
  // Longer horizons may drift more; just require continuity ordering most
  // of the time, not strictly (flutter can cancel).
  EXPECT_GE(std::abs(v60 - v0) + 1e-9, 0.0);
}

TEST(GreenOrbsField, ConfigValidation) {
  GreenOrbsConfig bad = small_config();
  bad.gap_count = -1;
  EXPECT_THROW(GreenOrbsField{bad}, std::invalid_argument);
  bad = small_config();
  bad.amplitude_max = 0.1;  // Below amplitude_min.
  EXPECT_THROW(GreenOrbsField{bad}, std::invalid_argument);
  bad = small_config();
  bad.sigma_min = 0.0;
  EXPECT_THROW(GreenOrbsField{bad}, std::invalid_argument);
  bad = small_config();
  bad.sunrise = bad.sunset;
  EXPECT_THROW(GreenOrbsField{bad}, std::invalid_argument);
  bad = small_config();
  bad.flutter_fraction = 1.5;
  EXPECT_THROW(GreenOrbsField{bad}, std::invalid_argument);
  // NaN fails every ordered comparison, so each check must be written to
  // reject it rather than to accept only what it names.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bad = small_config();
  bad.flutter_fraction = nan;
  EXPECT_THROW(GreenOrbsField{bad}, std::invalid_argument);
  bad = small_config();
  bad.flutter_period = nan;
  EXPECT_THROW(GreenOrbsField{bad}, std::invalid_argument);
  bad = small_config();
  bad.amplitude_max = nan;
  EXPECT_THROW(GreenOrbsField{bad}, std::invalid_argument);
  bad = small_config();
  bad.sigma_min = nan;
  EXPECT_THROW(GreenOrbsField{bad}, std::invalid_argument);
  bad = small_config();
  bad.region = num::Rect{0.0, 0.0, -1.0, 1.0};
  EXPECT_THROW(GreenOrbsField{bad}, std::invalid_argument);
}

TEST(GreenOrbsField, SnapshotMatchesPointQueries) {
  const GreenOrbsField f(small_config());
  const auto grid = f.snapshot(600.0, 21, 21);
  for (std::size_t i = 0; i < 21; i += 5) {
    for (std::size_t j = 0; j < 21; j += 5) {
      const auto p = grid.sample_position(i, j);
      EXPECT_NEAR(grid.at(i, j), f.value(p, 600.0), 1e-12);
    }
  }
}

TEST(GreenOrbsField, RecordProducesExpectedFrames) {
  const GreenOrbsField f(small_config());
  const auto seq = f.record(600.0, 620.0, 5.0, 11, 11);
  EXPECT_EQ(seq.frame_count(), 5u);  // 600, 605, 610, 615, 620.
  EXPECT_DOUBLE_EQ(seq.first_time(), 600.0);
  EXPECT_DOUBLE_EQ(seq.last_time(), 620.0);
  EXPECT_THROW(f.record(600.0, 620.0, 0.0, 11, 11), std::invalid_argument);
  EXPECT_THROW(f.record(600.0, 620.0, std::numeric_limits<double>::quiet_NaN(),
                        11, 11),
               std::invalid_argument);
  EXPECT_THROW(f.record(620.0, 600.0, 5.0, 11, 11), std::invalid_argument);
}

TEST(TraceIo, GridRoundTrip) {
  const GreenOrbsField f(small_config());
  const auto grid = f.snapshot(600.0, 13, 9);
  std::stringstream buffer;
  write_grid(buffer, grid);
  const auto loaded = read_grid(buffer);
  EXPECT_EQ(loaded.nx(), grid.nx());
  EXPECT_EQ(loaded.ny(), grid.ny());
  EXPECT_DOUBLE_EQ(loaded.bounds().x1, grid.bounds().x1);
  for (std::size_t j = 0; j < grid.ny(); ++j) {
    for (std::size_t i = 0; i < grid.nx(); ++i) {
      ASSERT_DOUBLE_EQ(loaded.at(i, j), grid.at(i, j));
    }
  }
}

TEST(TraceIo, TraceRoundTrip) {
  const GreenOrbsField f(small_config());
  const auto seq = f.record(600.0, 610.0, 5.0, 7, 7);
  std::stringstream buffer;
  write_trace(buffer, seq);
  const auto loaded = read_trace(buffer);
  ASSERT_EQ(loaded.frame_count(), seq.frame_count());
  for (std::size_t fi = 0; fi < seq.frame_count(); ++fi) {
    ASSERT_DOUBLE_EQ(loaded.timestamp(fi), seq.timestamp(fi));
  }
  // Values survive: spot-check interpolated queries.
  EXPECT_DOUBLE_EQ(loaded.value({33.0, 71.0}, 607.0),
                   seq.value({33.0, 71.0}, 607.0));
}

TEST(TraceIo, MalformedInputsThrow) {
  std::stringstream empty;
  EXPECT_THROW(read_grid(empty), std::runtime_error);

  std::stringstream bad_magic("# nonsense\n");
  EXPECT_THROW(read_grid(bad_magic), std::runtime_error);

  std::stringstream truncated(
      "# cps-grid v1\n# bounds 0 0 1 1\n# shape 3 3\n1,2,3\n");
  EXPECT_THROW(read_grid(truncated), std::runtime_error);

  std::stringstream ragged(
      "# cps-grid v1\n# bounds 0 0 1 1\n# shape 2 2\n1,2\n3\n");
  EXPECT_THROW(read_grid(ragged), std::runtime_error);

  std::stringstream too_wide(
      "# cps-grid v1\n# bounds 0 0 1 1\n# shape 2 2\n1,2,9\n3,4\n");
  EXPECT_THROW(read_grid(too_wide), std::runtime_error);
}

TEST(TraceIo, CrlfFilesRoundTrip) {
  // A trace that passed through a Windows editor or HTTP download gains
  // \r\n line endings; the reader must shrug them off.
  const GreenOrbsField f(small_config());
  const auto seq = f.record(600.0, 610.0, 5.0, 7, 7);
  std::stringstream buffer;
  write_trace(buffer, seq);
  std::string text = buffer.str();
  std::string crlf;
  crlf.reserve(text.size() * 2);
  for (const char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::stringstream converted(crlf);
  const auto loaded = read_trace(converted);
  ASSERT_EQ(loaded.frame_count(), seq.frame_count());
  for (std::size_t fi = 0; fi < seq.frame_count(); ++fi) {
    ASSERT_DOUBLE_EQ(loaded.timestamp(fi), seq.timestamp(fi));
  }
  EXPECT_DOUBLE_EQ(loaded.value({33.0, 71.0}, 607.0),
                   seq.value({33.0, 71.0}, 607.0));
}

TEST(TraceIo, MalformedCellsRejectedWithLocation) {
  // Trailing garbage after a parsable prefix must not be silently
  // truncated, and the error must say where to look.
  std::stringstream garbage(
      "# cps-grid v1\n# bounds 0 0 1 1\n# shape 2 2\n1,2\n3,1.5abc\n");
  try {
    read_grid(garbage);
    FAIL() << "expected malformed-input error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 2"), std::string::npos) << what;
    EXPECT_NE(what.find("column 2"), std::string::npos) << what;
  }

  std::stringstream unparsable(
      "# cps-grid v1\n# bounds 0 0 1 1\n# shape 2 2\nx,2\n3,4\n");
  EXPECT_THROW(read_grid(unparsable), std::runtime_error);

  std::stringstream empty_cell(
      "# cps-grid v1\n# bounds 0 0 1 1\n# shape 2 2\n1,\n3,4\n");
  EXPECT_THROW(read_grid(empty_cell), std::runtime_error);

  std::stringstream overflow(
      "# cps-grid v1\n# bounds 0 0 1 1\n# shape 2 2\n1,1e999999\n3,4\n");
  EXPECT_THROW(read_grid(overflow), std::runtime_error);
}

TEST(TraceIo, TruncatedTraceFrameRejected) {
  // Two frames promised, second frame cut off mid-grid.
  std::stringstream truncated(
      "# cps-trace v1\n# bounds 0 0 1 1\n# shape 2 2\n# frames 2\n"
      "# t 600\n1,2\n3,4\n# t 605\n5,6\n");
  EXPECT_THROW(read_trace(truncated), std::runtime_error);
}

TEST(TraceIo, WritersRestoreStreamPrecision) {
  const GreenOrbsField f(small_config());
  const auto grid = f.snapshot(600.0, 5, 5);
  const auto seq = f.record(600.0, 605.0, 5.0, 5, 5);
  std::stringstream out;
  out.precision(6);
  write_grid(out, grid);
  EXPECT_EQ(out.precision(), 6);
  write_trace(out, seq);
  EXPECT_EQ(out.precision(), 6);
  // The payload itself was still written at full double precision: a
  // round-trip through text reproduces the grid exactly.
  std::stringstream buffer;
  buffer.precision(3);
  write_grid(buffer, grid);
  const auto loaded = read_grid(buffer);
  for (std::size_t j = 0; j < grid.ny(); ++j) {
    for (std::size_t i = 0; i < grid.nx(); ++i) {
      ASSERT_DOUBLE_EQ(loaded.at(i, j), grid.at(i, j));
    }
  }
}

TEST(TraceIo, FileRoundTripAndMissingFile) {
  const GreenOrbsField f(small_config());
  const auto grid = f.snapshot(600.0, 5, 5);
  const std::string path = ::testing::TempDir() + "/cps_grid_test.csv";
  write_grid_file(path, grid);
  const auto loaded = read_grid_file(path);
  EXPECT_DOUBLE_EQ(loaded.at(2, 2), grid.at(2, 2));
  EXPECT_THROW(read_grid_file("/nonexistent/dir/file.csv"),
               std::runtime_error);
  EXPECT_THROW(write_grid_file("/nonexistent/dir/file.csv", grid),
               std::runtime_error);
}

}  // namespace
}  // namespace cps::trace
