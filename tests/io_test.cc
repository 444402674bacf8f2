// Round-trip and error-handling tests for dataset serialization.

#include "io/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "test_scratch.h"

namespace pigeonring::io {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) const {
    return ScratchPath(name);
  }
  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(Path(name));
    out << content;
  }
};

TEST_F(IoTest, BitVectorsRoundTrip) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 96;
  config.num_objects = 50;
  config.num_clusters = 5;
  config.seed = 3;
  const auto vectors = datagen::GenerateBinaryVectors(config);
  ASSERT_TRUE(SaveBitVectors(Path("v.txt"), vectors).ok());
  auto loaded = LoadBitVectors(Path("v.txt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), vectors.size());
  for (size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_TRUE((*loaded)[i] == vectors[i]);
  }
}

TEST_F(IoTest, BitVectorsRejectBadInput) {
  WriteFile("bad1.txt", "not_a_number\n01\n");
  EXPECT_FALSE(LoadBitVectors(Path("bad1.txt")).ok());
  WriteFile("bad2.txt", "4\n0101\n011\n");  // wrong width
  EXPECT_FALSE(LoadBitVectors(Path("bad2.txt")).ok());
  WriteFile("bad3.txt", "4\n01x1\n");  // bad character
  EXPECT_FALSE(LoadBitVectors(Path("bad3.txt")).ok());
  EXPECT_FALSE(LoadBitVectors(Path("missing.txt")).ok());
}

TEST_F(IoTest, TokenSetsRoundTrip) {
  datagen::TokenSetConfig config;
  config.num_records = 60;
  config.avg_tokens = 8;
  config.universe_size = 300;
  config.seed = 5;
  auto sets = datagen::GenerateTokenSets(config);
  sets.push_back({});  // empty set must survive the round trip
  ASSERT_TRUE(SaveTokenSets(Path("s.txt"), sets).ok());
  auto loaded = LoadTokenSets(Path("s.txt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, sets);
}

TEST_F(IoTest, TokenSetsRejectBadInput) {
  WriteFile("bad.txt", "1 2 three\n");
  EXPECT_FALSE(LoadTokenSets(Path("bad.txt")).ok());
  WriteFile("neg.txt", "1 -2 3\n");
  EXPECT_FALSE(LoadTokenSets(Path("neg.txt")).ok());
}

TEST_F(IoTest, TokenSetsRejectOutOfRangeTokens) {
  // > INT_MAX must not be silently truncated by the int narrowing.
  WriteFile("wide.txt", "1 3000000000\n");
  EXPECT_FALSE(LoadTokenSets(Path("wide.txt")).ok());
  // Overflows long long *at end of line*: stream extraction sets eofbit
  // together with failbit here, which used to slip past the error check
  // and load as an empty set.
  WriteFile("huge.txt", "99999999999999999999999999999999\n");
  auto huge = LoadTokenSets(Path("huge.txt"));
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, BitVectorsRejectTruncatedHeader) {
  WriteFile("empty.txt", "");  // no dimensionality header at all
  EXPECT_FALSE(LoadBitVectors(Path("empty.txt")).ok());
  WriteFile("negdim.txt", "-4\n0101\n");
  EXPECT_FALSE(LoadBitVectors(Path("negdim.txt")).ok());
}

TEST_F(IoTest, StringsRoundTrip) {
  datagen::StringConfig config;
  config.num_records = 40;
  config.avg_length = 12;
  config.seed = 7;
  auto strings = datagen::GenerateStrings(config);
  strings.push_back("");  // empty line round-trips
  ASSERT_TRUE(SaveStrings(Path("t.txt"), strings).ok());
  auto loaded = LoadStrings(Path("t.txt"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, strings);
}

TEST_F(IoTest, StringsRejectEmbeddedNewline) {
  EXPECT_FALSE(SaveStrings(Path("t.txt"), {"ok", "bad\nline"}).ok());
}

TEST_F(IoTest, GraphsRoundTrip) {
  datagen::GraphConfig config;
  config.num_graphs = 30;
  config.avg_vertices = 8;
  config.avg_edges = 9;
  config.seed = 9;
  const auto graphs = datagen::GenerateGraphs(config);
  ASSERT_TRUE(SaveGraphs(Path("g.txt"), graphs).ok());
  auto loaded = LoadGraphs(Path("g.txt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), graphs.size());
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_EQ((*loaded)[i].vertex_labels(), graphs[i].vertex_labels());
    EXPECT_EQ((*loaded)[i].edges(), graphs[i].edges());
  }
}

TEST_F(IoTest, GraphsRejectBadInput) {
  WriteFile("bad1.txt", "g 2 1\nv 1 2\ne 0 5 0\n");  // out-of-range vertex
  EXPECT_FALSE(LoadGraphs(Path("bad1.txt")).ok());
  WriteFile("bad2.txt", "g 2 1\nv 1\ne 0 1 0\n");  // missing label
  EXPECT_FALSE(LoadGraphs(Path("bad2.txt")).ok());
  WriteFile("bad3.txt", "h 2 1\n");  // wrong tag
  EXPECT_FALSE(LoadGraphs(Path("bad3.txt")).ok());
  WriteFile("bad4.txt", "g 2 2\nv 1 2\ne 0 1 0\ne 0 1 0\n");  // dup edge
  EXPECT_FALSE(LoadGraphs(Path("bad4.txt")).ok());
}

TEST_F(IoTest, GraphsRejectTruncatedFile) {
  WriteFile("trunc1.txt", "g 2 1\nv 1 2\n");  // edge line missing
  auto trunc1 = LoadGraphs(Path("trunc1.txt"));
  ASSERT_FALSE(trunc1.ok());
  EXPECT_EQ(trunc1.status().code(), StatusCode::kInvalidArgument);
  WriteFile("trunc2.txt", "g 2 1\n");  // vertex label line missing
  EXPECT_FALSE(LoadGraphs(Path("trunc2.txt")).ok());
  WriteFile("trunc3.txt", "g 3 2\nv 1 2 3\ne 0 1 0\n");  // one of two edges
  EXPECT_FALSE(LoadGraphs(Path("trunc3.txt")).ok());
  // Errors carry file and line context for the operator.
  EXPECT_NE(trunc1.status().message().find("trunc1.txt:3"),
            std::string::npos)
      << trunc1.status().ToString();
}

TEST_F(IoTest, EmptyDatasetsRoundTrip) {
  ASSERT_TRUE(SaveBitVectors(Path("e1.txt"), {}).ok());
  auto v = LoadBitVectors(Path("e1.txt"));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->empty());
  ASSERT_TRUE(SaveGraphs(Path("e2.txt"), {}).ok());
  auto g = LoadGraphs(Path("e2.txt"));
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->empty());
}

}  // namespace
}  // namespace pigeonring::io
