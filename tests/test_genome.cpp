// test_genome.cpp — the genomics substrate: 2-bit k-mer codec, canonical
// forms, FASTA/FASTQ I/O, sample building with noise thresholds, the
// synthetic mutation model, and sequencing-read simulation.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "genome/alphabet.hpp"
#include "genome/fasta.hpp"
#include "genome/kmer.hpp"
#include "genome/kmer_spectrum.hpp"
#include "genome/phylip.hpp"
#include "genome/sample.hpp"
#include "genome/synthetic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sas::genome {
namespace {

// --------------------------------------------------------------- alphabet

TEST(Alphabet, CodesRoundTripAndComplement) {
  for (char base : {'A', 'C', 'G', 'T'}) {
    const int code = base_code(base);
    ASSERT_NE(code, kInvalidBase);
    EXPECT_EQ(code_base(code), base);
    EXPECT_EQ(complement_base(complement_base(base)), base);
  }
  EXPECT_EQ(base_code('a'), base_code('A'));
  EXPECT_EQ(base_code('N'), kInvalidBase);
  EXPECT_EQ(base_code('x'), kInvalidBase);
  EXPECT_EQ(complement_base('A'), 'T');
  EXPECT_EQ(complement_base('C'), 'G');
  EXPECT_EQ(complement_base('N'), 'N');
}

// ------------------------------------------------------------------ k-mer

class CodecTest : public ::testing::TestWithParam<int> {};

TEST_P(CodecTest, EncodeDecodeRoundTrip) {
  const int k = GetParam();
  const KmerCodec codec(k);
  Rng rng(k);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string kmer = random_genome(k, rng);
    EXPECT_EQ(codec.decode(codec.encode(kmer)), kmer);
  }
}

TEST_P(CodecTest, ReverseComplementIsAnInvolutionAndMatchesStrings) {
  const int k = GetParam();
  const KmerCodec codec(k);
  Rng rng(1000 + k);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string kmer = random_genome(k, rng);
    const std::uint64_t code = codec.encode(kmer);
    const std::uint64_t rc = codec.reverse_complement(code);
    EXPECT_EQ(codec.reverse_complement(rc), code);
    std::string rc_string(kmer.rbegin(), kmer.rend());
    for (char& base : rc_string) base = complement_base(base);
    EXPECT_EQ(codec.decode(rc), rc_string);
  }
}

TEST_P(CodecTest, OddKHasNoSelfReverseComplement) {
  // The paper picks k = 19 over 20 precisely "to avoid the possibility of
  // k-mers being equal to their reverse complements".
  const int k = GetParam();
  if (k % 2 == 0) GTEST_SKIP() << "property holds only for odd k";
  const KmerCodec codec(k);
  Rng rng(7 * k);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t code = rng() & ((1ULL << (2 * k)) - 1);
    EXPECT_NE(codec.reverse_complement(code), code);
  }
}

TEST_P(CodecTest, CanonicalIsStrandNeutral) {
  const int k = GetParam();
  const KmerCodec codec(k);
  Rng rng(99 + k);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t code = rng() & ((1ULL << (2 * k)) - 1);
    EXPECT_EQ(codec.canonical(code), codec.canonical(codec.reverse_complement(code)));
    EXPECT_LE(codec.canonical(code), code);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, CodecTest, ::testing::Values(1, 2, 3, 5, 11, 19, 31));

TEST(Codec, RejectsBadK) {
  EXPECT_THROW(KmerCodec(0), error::ConfigError);
  EXPECT_THROW(KmerCodec(32), error::ConfigError);
}

TEST(Codec, UniverseIs4PowK) {
  EXPECT_EQ(KmerCodec(3).universe(), 64);
  EXPECT_EQ(KmerCodec(19).universe(), std::int64_t{1} << 38);
  EXPECT_EQ(KmerCodec(31).universe(), std::int64_t{1} << 62);
}

TEST(Codec, CanonicalKmersWindowCount) {
  // "in a sequence AATGTC, there are four 3-mers (AAT, ATG, TGT, GTC)".
  const KmerCodec codec(3);
  const auto kmers = codec.canonical_kmers("AATGTC");
  ASSERT_EQ(kmers.size(), 4u);
  EXPECT_EQ(kmers[0], codec.canonical(codec.encode("AAT")));
  EXPECT_EQ(kmers[1], codec.canonical(codec.encode("ATG")));
  EXPECT_EQ(kmers[2], codec.canonical(codec.encode("TGT")));
  EXPECT_EQ(kmers[3], codec.canonical(codec.encode("GTC")));
  EXPECT_EQ(codec.canonical_kmers("AATG").size(), 2u);  // and three 4-mers... for k=3
}

TEST(Codec, InvalidBasesBreakWindows) {
  const KmerCodec codec(3);
  // ACGNTGA: windows with N are skipped -> only TGA survives.
  const auto kmers = codec.canonical_kmers("ACGNTGA");
  ASSERT_EQ(kmers.size(), 2u);  // ACG and TGA
  EXPECT_EQ(kmers[0], codec.canonical(codec.encode("ACG")));
  EXPECT_EQ(kmers[1], codec.canonical(codec.encode("TGA")));
}

TEST(Codec, SequenceAndItsReverseComplementShareCanonicalSets) {
  const KmerCodec codec(5);
  Rng rng(31337);
  const std::string forward = random_genome(300, rng);
  std::string reverse(forward.rbegin(), forward.rend());
  for (char& base : reverse) base = complement_base(base);
  auto a = codec.canonical_kmers(forward);
  auto b = codec.canonical_kmers(reverse);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(Codec, ShortSequenceYieldsNothing) {
  const KmerCodec codec(9);
  EXPECT_TRUE(codec.canonical_kmers("ACGTACG").empty());
  EXPECT_TRUE(codec.canonical_kmers("").empty());
}

// ------------------------------------------------------------------ FASTA

TEST(Fasta, ParsesMultiRecordMultiLine) {
  std::istringstream in(
      ">seq1 first sample\nACGT\nACG\n\n>seq2\nTTTT\n>seq3 desc here\nGG\n");
  const auto records = read_fasta(in);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].id, "seq1");
  EXPECT_EQ(records[0].description, "first sample");
  EXPECT_EQ(records[0].sequence, "ACGTACG");
  EXPECT_EQ(records[1].id, "seq2");
  EXPECT_TRUE(records[1].description.empty());
  EXPECT_EQ(records[2].sequence, "GG");
}

TEST(Fasta, HandlesCrlf) {
  std::istringstream in(">s\r\nACGT\r\nAC\r\n");
  const auto records = read_fasta(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sequence, "ACGTAC");
}

TEST(Fasta, RejectsLeadingSequenceData) {
  std::istringstream in("ACGT\n>s\nACGT\n");
  EXPECT_THROW(read_fasta(in), std::runtime_error);
}

TEST(Fasta, WriteReadRoundTripWithWrapping) {
  std::vector<SequenceRecord> records{{"alpha", "sample one", std::string(157, 'A')},
                                      {"beta", "", "ACGTACGT"}};
  std::ostringstream out;
  write_fasta(out, records, 60);
  std::istringstream in(out.str());
  const auto parsed = read_fasta(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, records[0].id);
  EXPECT_EQ(parsed[0].description, records[0].description);
  EXPECT_EQ(parsed[0].sequence, records[0].sequence);
  EXPECT_EQ(parsed[1].sequence, records[1].sequence);
}

TEST(Fastq, ParsesFourLineRecords) {
  std::istringstream in("@r1 lane1\nACGT\n+\nIIII\n@r2\nGG\n+r2\nII\n");
  const auto records = read_fastq(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, "r1");
  EXPECT_EQ(records[0].sequence, "ACGT");
  EXPECT_EQ(records[1].sequence, "GG");
}

TEST(Fastq, RejectsMalformedRecords) {
  std::istringstream truncated("@r1\nACGT\n+\n");
  EXPECT_THROW(read_fastq(truncated), std::runtime_error);
  std::istringstream bad_sep("@r1\nACGT\nX\nIIII\n");
  EXPECT_THROW(read_fastq(bad_sep), std::runtime_error);
  std::istringstream bad_len("@r1\nACGT\n+\nII\n");
  EXPECT_THROW(read_fastq(bad_len), std::runtime_error);
}

// ----------------------------------------------------------------- sample

TEST(Sample, BuildCollectsUniqueCanonicalKmers) {
  const KmerCodec codec(3);
  const KmerSample sample =
      build_sample("s", {{"a", "", "AATGTC"}, {"b", "", "AATG"}}, codec);
  // AATGTC -> {AAT, ATG, TGT, GTC}; AATG adds no new canonical codes
  // beyond AAT/ATG. Canonicalization may merge some.
  std::set<std::uint64_t> expected;
  for (const char* kmer : {"AAT", "ATG", "TGT", "GTC"}) {
    expected.insert(codec.canonical(codec.encode(kmer)));
  }
  EXPECT_EQ(std::set<std::uint64_t>(sample.kmers.begin(), sample.kmers.end()), expected);
  EXPECT_TRUE(std::is_sorted(sample.kmers.begin(), sample.kmers.end()));
}

TEST(Sample, MinCountFiltersRareKmers) {
  const KmerCodec codec(3);
  // Canonical counts across the two records: AAA twice (in AAAT and AAA),
  // AAT once. (ACG/CGT would collide — they are reverse complements.)
  const KmerSample keep_all =
      build_sample("s", {{"a", "", "AAAT"}, {"b", "", "AAA"}}, codec, 1);
  const KmerSample thresholded =
      build_sample("s", {{"a", "", "AAAT"}, {"b", "", "AAA"}}, codec, 2);
  EXPECT_EQ(keep_all.size(), 2);
  ASSERT_EQ(thresholded.size(), 1);
  EXPECT_EQ(thresholded.kmers[0], codec.canonical(codec.encode("AAA")));
}

TEST(Sample, JaccardOfSamplesMatchesDefinition) {
  KmerSample a{"a", {1, 2, 3, 10}};
  KmerSample b{"b", {2, 3, 4}};
  EXPECT_DOUBLE_EQ(jaccard_of_samples(a, b), 2.0 / 5.0);
  KmerSample empty{"e", {}};
  EXPECT_DOUBLE_EQ(jaccard_of_samples(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(jaccard_of_samples(a, empty), 0.0);
}

TEST(Sample, FileRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "sas_sample_rt.txt";
  const KmerSample sample{"sample X", {0, 5, 42, 1ULL << 40}};
  write_sample_file(path, sample);
  const KmerSample parsed = read_sample_file(path);
  EXPECT_EQ(parsed.name, sample.name);
  EXPECT_EQ(parsed.kmers, sample.kmers);
  std::remove(path.c_str());
}

TEST(Sample, CrLfBlankAndCommentLinesParseLikeTheirLfForm) {
  const auto dir = std::filesystem::temp_directory_path() / "sas_sample_crlf";
  std::filesystem::create_directories(dir);
  const std::string lf = (dir / "lf.kmers").string();
  const std::string crlf = (dir / "crlf.kmers").string();
  const auto write = [](const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary) << bytes;
  };
  write(lf, "# name\n3\n17\n250\n");
  // CR-LF ends, blank lines (bare and CR-only), a bare `#` line, and no
  // newline after the last code.
  write(crlf, "# name\r\n\r\n3\r\n#\r\n\n17\r\n\r\n250");
  const KmerSample want = read_sample_file(lf);
  const KmerSample got = read_sample_file(crlf);
  EXPECT_EQ(got.name, "name");
  EXPECT_EQ(got.kmers, want.kmers);
  EXPECT_EQ(got.kmers, (std::vector<std::uint64_t>{3, 17, 250}));

  // A bad code on the unterminated last line (line 8) is named by its line.
  write(crlf, "# name\r\n\r\n3\r\n#\r\n\n17\r\n\r\n25x");
  try {
    (void)read_sample_file(crlf);
    ADD_FAILURE() << "a bad last line was accepted";
  } catch (const error::CorruptInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(crlf), std::string::npos) << what;
    EXPECT_NE(what.find("line 8 "), std::string::npos) << what;
  }
  // A path that opens but cannot be read is a ConfigError naming it.
  try {
    (void)read_sample_file(dir.string());
    ADD_FAILURE() << "a directory was read as a sample file";
  } catch (const error::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(dir.string()), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------------- synthetic

TEST(Synthetic, RandomGenomeUsesAllBases) {
  Rng rng(5);
  const std::string genome = random_genome(4000, rng);
  EXPECT_EQ(genome.size(), 4000u);
  for (char base : {'A', 'C', 'G', 'T'}) {
    EXPECT_NE(genome.find(base), std::string::npos);
  }
}

TEST(Synthetic, MutationRateControlsHammingDistance) {
  Rng rng(6);
  const std::string genome = random_genome(20000, rng);
  const std::string mutated = mutate_point(genome, 0.05, rng);
  ASSERT_EQ(mutated.size(), genome.size());
  std::int64_t differing = 0;
  for (std::size_t i = 0; i < genome.size(); ++i) {
    differing += genome[i] != mutated[i] ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(differing) / 20000.0, 0.05, 0.01);
  // Zero rate: identical.
  EXPECT_EQ(mutate_point(genome, 0.0, rng), genome);
}

TEST(Synthetic, ExpectedJaccardFormulaAndInverse) {
  for (int k : {11, 19, 31}) {
    for (double j : {0.05, 0.5, 0.9, 0.99}) {
      const double r = mutation_rate_for_jaccard(k, j);
      EXPECT_NEAR(expected_jaccard_after_mutation(k, r), j, 1e-12);
    }
  }
  EXPECT_DOUBLE_EQ(expected_jaccard_after_mutation(19, 0.0), 1.0);
}

TEST(Synthetic, MutationModelPredictsMeasuredJaccard) {
  // Property check of the model the accuracy experiments depend on.
  const int k = 15;
  const KmerCodec codec(k);
  Rng rng(77);
  const std::string genome = random_genome(60000, rng);
  for (double target : {0.85, 0.5}) {
    const double rate = mutation_rate_for_jaccard(k, target);
    const std::string mutated = mutate_point(genome, rate, rng);
    const KmerSample a = build_sample("a", {{"g", "", genome}}, codec);
    const KmerSample b = build_sample("b", {{"g", "", mutated}}, codec);
    EXPECT_NEAR(jaccard_of_samples(a, b), target, 0.08) << "target " << target;
  }
}

TEST(Synthetic, SimulatedReadsCoverGenome) {
  Rng rng(8);
  const std::string genome = random_genome(5000, rng);
  const auto reads = simulate_reads(genome, 100, 10.0, 0.0, rng);
  EXPECT_EQ(reads.size(), 500u);  // coverage * len / read_len
  // Error-free reads at 10x coverage recover (nearly) all genome k-mers.
  const KmerCodec codec(15);
  const KmerSample from_reads = build_sample("r", reads, codec);
  const KmerSample truth = build_sample("t", {{"g", "", genome}}, codec);
  EXPECT_GT(jaccard_of_samples(from_reads, truth), 0.95);
}

TEST(Synthetic, SequencingErrorsCreateNoiseThatMinCountRemoves) {
  Rng rng(9);
  const std::string genome = random_genome(5000, rng);
  const auto reads = simulate_reads(genome, 100, 30.0, 0.005, rng);
  const KmerCodec codec(15);
  const KmerSample truth = build_sample("t", {{"g", "", genome}}, codec);
  const KmerSample noisy = build_sample("r", reads, codec, 1);
  const KmerSample filtered = build_sample("r", reads, codec, 3);
  // The threshold must strictly improve agreement with the truth set.
  EXPECT_GT(jaccard_of_samples(filtered, truth), jaccard_of_samples(noisy, truth));
  EXPECT_GT(jaccard_of_samples(filtered, truth), 0.9);
}

TEST(Synthetic, EvolvePopulationShapesTree) {
  Rng rng(10);
  const std::string ancestor = random_genome(2000, rng);
  const auto pop = evolve_population(ancestor, 6, 0.01, rng);
  EXPECT_EQ(pop.leaf_genomes.size(), 6u);
  EXPECT_EQ(pop.leaf_names.size(), 6u);
  EXPECT_EQ(pop.parent.size(), 11u);  // 2*leaves - 1 nodes
  EXPECT_EQ(pop.parent[0], -1);       // root first
  for (std::size_t i = 1; i < pop.parent.size(); ++i) {
    EXPECT_GE(pop.parent[i], 0);
    EXPECT_LT(pop.parent[i], static_cast<int>(i));
  }
}

// --------------------------------------------------------------- spectrum

TEST(Spectrum, CountsMultiplicitiesExactly) {
  const KmerCodec codec(3);
  // "AAAA": windows AAA, AAA -> canonical AAA twice. "AAA": once more.
  // "CCC" -> canonical min(CCC, GGG) = CCC once.
  const auto spectrum =
      build_spectrum({{"a", "", "AAAA"}, {"b", "", "AAA"}, {"c", "", "CCC"}}, codec);
  EXPECT_EQ(spectrum.distinct_kmers, 2);
  EXPECT_EQ(spectrum.total_kmers, 4);
  EXPECT_EQ(spectrum.histogram.at(1), 1);  // CCC
  EXPECT_EQ(spectrum.histogram.at(3), 1);  // AAA
  EXPECT_EQ(spectrum.kept_at(1), 2);
  EXPECT_EQ(spectrum.kept_at(2), 1);
  EXPECT_EQ(spectrum.kept_at(4), 0);
}

TEST(Spectrum, AssembledGenomeSuggestsKeepingEverything) {
  // Every k-mer of a random genome occurs ~once: no valley, threshold 1.
  Rng rng(3);
  const KmerCodec codec(17);
  const auto spectrum =
      build_spectrum({{"g", "", random_genome(20000, rng)}}, codec);
  EXPECT_EQ(suggest_min_count(spectrum), 1);
}

TEST(Spectrum, NoisyReadsSuggestValleyThreshold) {
  // 30x coverage with 0.5% error: error k-mers pile up at count 1-2,
  // genomic k-mers near 30 — the valley sits in between.
  Rng rng(4);
  const std::string genome = random_genome(8000, rng);
  const auto reads = simulate_reads(genome, 100, 30.0, 0.005, rng);
  const KmerCodec codec(17);
  const auto spectrum = build_spectrum(reads, codec);
  const int threshold = suggest_min_count(spectrum);
  EXPECT_GT(threshold, 1);
  EXPECT_LT(threshold, 15);  // far below the coverage peak

  // The suggested threshold must improve agreement with the truth set.
  const KmerSample truth = build_sample("t", {{"g", "", genome}}, codec);
  const KmerSample raw = build_sample("r", reads, codec, 1);
  const KmerSample cleaned = build_sample("r", reads, codec, threshold);
  EXPECT_GT(jaccard_of_samples(cleaned, truth), jaccard_of_samples(raw, truth));
}

TEST(Spectrum, SuggestHandlesDegenerateHistograms) {
  KmerSpectrum empty;
  EXPECT_EQ(suggest_min_count(empty), 1);
  KmerSpectrum single;
  single.histogram[5] = 10;  // everything at count 5
  EXPECT_EQ(suggest_min_count(single), 1);
}

// ----------------------------------------------------------------- PHYLIP

TEST(Phylip, WriteReadRoundTrip) {
  const std::vector<std::string> names{"sampleA", "sampleB", "sampleC"};
  const std::vector<double> d{0, 0.25, 0.5, 0.25, 0, 0.125, 0.5, 0.125, 0};
  std::ostringstream out;
  write_phylip(out, names, d, 3);
  std::istringstream in(out.str());
  const PhylipMatrix parsed = read_phylip(in);
  EXPECT_EQ(parsed.n, 3);
  EXPECT_EQ(parsed.names, names);
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_NEAR(parsed.distances[i], d[i], 1e-6);
}

TEST(Phylip, ValidatesDimensions) {
  std::ostringstream out;
  EXPECT_THROW(write_phylip(out, {"a"}, {0, 0}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace sas::genome
