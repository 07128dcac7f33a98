#include "io/pdata.h"

#include <sstream>

#include <gtest/gtest.h>

#include "core/wavelet.h"
#include "gen/generators.h"
#include "test_util.h"

namespace probsyn {
namespace {

TEST(Pdata, ValuePdfRoundTrip) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 20, .max_support = 4, .max_value = 9, .seed = 2});
  std::stringstream stream;
  ASSERT_TRUE(WriteValuePdf(stream, input).ok());
  auto back = ReadValuePdf(stream);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->domain_size(), input.domain_size());
  for (std::size_t i = 0; i < input.domain_size(); ++i) {
    EXPECT_EQ(back->item(i), input.item(i)) << "item " << i;
  }
}

TEST(Pdata, TuplePdfRoundTrip) {
  TuplePdfInput input = GenerateRandomTuplePdf(
      {.domain_size = 12, .num_tuples = 25, .max_alternatives = 4, .seed = 3});
  std::stringstream stream;
  ASSERT_TRUE(WriteTuplePdf(stream, input).ok());
  auto back = ReadTuplePdf(stream);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_tuples(), input.num_tuples());
  EXPECT_EQ(back->domain_size(), input.domain_size());
  for (std::size_t t = 0; t < input.num_tuples(); ++t) {
    EXPECT_EQ(back->tuples()[t].alternatives(),
              input.tuples()[t].alternatives());
  }
}

TEST(Pdata, BasicModelRoundTrip) {
  BasicModelInput input = GenerateMovieLinkage({.domain_size = 40, .seed = 4});
  std::stringstream stream;
  ASSERT_TRUE(WriteBasicModel(stream, input).ok());
  auto back = ReadBasicModel(stream);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->tuples(), input.tuples());
  EXPECT_EQ(back->domain_size(), input.domain_size());
}

TEST(Pdata, CommentsAndBlankLinesIgnored) {
  std::stringstream stream;
  stream << "# leading comment\n\n"
         << "probsyn-pdata v1 basic\n"
         << "n 3 m 1  # inline comment\n"
         << "\n"
         << "t 1 0.5\n";
  auto back = ReadBasicModel(stream);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_tuples(), 1u);
  EXPECT_EQ(back->tuples()[0].item, 1u);
}

TEST(Pdata, RejectsWrongKind) {
  std::stringstream stream;
  stream << "probsyn-pdata v1 basic\nn 2 m 0\n";
  auto back = ReadValuePdf(stream);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(Pdata, RejectsBadMagicAndVersion) {
  std::stringstream bad_magic("nonsense v1 basic\n");
  EXPECT_FALSE(ReadBasicModel(bad_magic).ok());
  std::stringstream bad_version("probsyn-pdata v9 basic\n");
  EXPECT_FALSE(ReadBasicModel(bad_version).ok());
}

TEST(Pdata, RejectsTruncatedStreams) {
  std::stringstream stream;
  stream << "probsyn-pdata v1 tuple_pdf\nn 4 m 3\ntuple 1 0 0.5\n";
  auto back = ReadTuplePdf(stream);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIOError);
}

TEST(Pdata, RejectsDuplicateItems) {
  std::stringstream stream;
  stream << "probsyn-pdata v1 value_pdf\nn 2\n"
         << "item 0 1 1 1\n"
         << "item 0 1 2 1\n";
  EXPECT_FALSE(ReadValuePdf(stream).ok());
}

TEST(Pdata, RejectsInvalidProbabilities) {
  std::stringstream stream;
  stream << "probsyn-pdata v1 basic\nn 2 m 1\nt 0 1.7\n";
  EXPECT_FALSE(ReadBasicModel(stream).ok());
}

TEST(Pdata, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/probsyn_io_test.pdata";
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 8, .seed = 5});
  ASSERT_TRUE(SaveValuePdf(path, input).ok());
  auto back = LoadValuePdf(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->domain_size(), 8u);
  EXPECT_FALSE(LoadValuePdf(path + ".missing").ok());
}

TEST(Pdata, HistogramCsv) {
  Histogram h({{0, 3, 1.25}, {4, 7, 0.5}});
  std::stringstream stream;
  ASSERT_TRUE(WriteHistogramCsv(stream, h).ok());
  std::string text = stream.str();
  EXPECT_NE(text.find("bucket,start,end,representative"), std::string::npos);
  EXPECT_NE(text.find("0,0,3,1.25"), std::string::npos);
  EXPECT_NE(text.find("1,4,7,0.5"), std::string::npos);
}

TEST(Pdata, DetectKind) {
  std::stringstream value("probsyn-pdata v1 value_pdf\nn 0\n");
  auto kind = DetectPdataKind(value);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, "value_pdf");

  std::stringstream basic("# c\nprobsyn-pdata v1 basic\nn 1 m 0\n");
  kind = DetectPdataKind(basic);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, "basic");

  std::stringstream junk("something else\n");
  EXPECT_FALSE(DetectPdataKind(junk).ok());
  std::stringstream unknown("probsyn-pdata v1 mystery\n");
  EXPECT_FALSE(DetectPdataKind(unknown).ok());
}

TEST(Pdata, HistogramCsvRoundTrip) {
  Histogram h({{0, 3, 1.25}, {4, 7, -0.5}, {8, 10, 3.75}});
  std::stringstream stream;
  ASSERT_TRUE(WriteHistogramCsv(stream, h).ok());
  auto back = ReadHistogramCsv(stream);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, h);
}

TEST(Pdata, HistogramCsvRejectsMalformedInput) {
  std::stringstream no_header("1,2,3\n");
  EXPECT_FALSE(ReadHistogramCsv(no_header).ok());

  std::stringstream bad_row("bucket,start,end,representative\n0,0,x,1\n");
  EXPECT_FALSE(ReadHistogramCsv(bad_row).ok());

  std::stringstream out_of_order(
      "bucket,start,end,representative\n1,0,3,1.0\n");
  EXPECT_FALSE(ReadHistogramCsv(out_of_order).ok());

  std::stringstream gap(
      "bucket,start,end,representative\n0,0,3,1.0\n1,5,7,2.0\n");
  EXPECT_FALSE(ReadHistogramCsv(gap).ok());

  std::stringstream empty("bucket,start,end,representative\n");
  EXPECT_FALSE(ReadHistogramCsv(empty).ok());
}

TEST(Pdata, WaveletCsv) {
  WaveletSynopsis synopsis(4, 4, {{0, 2.0}, {2, -1.0}});
  std::stringstream stream;
  ASSERT_TRUE(WriteWaveletCsv(stream, synopsis).ok());
  std::string text = stream.str();
  EXPECT_NE(text.find("coefficient_index,value"), std::string::npos);
  EXPECT_NE(text.find("0,2"), std::string::npos);
  EXPECT_NE(text.find("2,-1"), std::string::npos);
}

}  // namespace
}  // namespace probsyn
