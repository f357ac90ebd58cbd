// document_similarity — the information-retrieval use case (paper §II-G).
//
// "J(X,Y) can be defined as the ratio of the counts of common and unique
// words in sets X and Y that model two documents." Documents are
// tokenized into word sets (hashed into an attribute universe), the
// SimilarityAtScale driver computes all-pairs Jaccard, and near-duplicate
// pairs are flagged — the plagiarism-detection framing from the paper's
// introduction. Demonstrates that the core is fully generic: nothing in
// the pipeline below is genomic.
//
// Usage:
//   document_similarity [--ranks 4] [--threshold 0.35]
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "util/args.hpp"
#include "util/hashing.hpp"
#include "util/table.hpp"

using namespace sas;

namespace {

/// Lowercased word tokens of a document.
std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> words;
  std::string word;
  for (char c : text) {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      word += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!word.empty()) {
      words.push_back(word);
      word.clear();
    }
  }
  if (!word.empty()) words.push_back(word);
  return words;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const int ranks = args.get_int32("ranks", 4);
  const double threshold = args.get_double("threshold", 0.35);

  const std::vector<std::pair<std::string, std::string>> corpus{
      {"report_v1",
       "The Jaccard similarity index measures the overlap of two sets and is widely "
       "used in machine learning information retrieval and computational genomics."},
      {"report_v2",
       "The Jaccard similarity index measures the overlap between two sets and is "
       "widely used in machine learning, information retrieval, and genomics."},
      {"unrelated_recipe",
       "Bring a large pot of salted water to a boil, add the pasta, and cook until "
       "al dente; reserve a cup of cooking water before draining."},
      {"survey",
       "Alignment free methods for genome comparison avoid the cost of alignment "
       "based tools and scale to modern sequencing data sets."},
      {"survey_plagiarized",
       "Alignment free methods for genome comparison avoid the expense of alignment "
       "based tools and scale to contemporary sequencing data sets."},
  };

  // Map word tokens into a hashed attribute universe.
  const std::int64_t universe = 1LL << 20;
  std::vector<std::vector<std::int64_t>> word_sets;
  std::vector<std::string> names;
  for (const auto& [name, text] : corpus) {
    names.push_back(name);
    std::vector<std::int64_t> ids;
    for (const std::string& word : tokenize(text)) {
      ids.push_back(static_cast<std::int64_t>(hash_bytes(word) % universe));
    }
    word_sets.push_back(std::move(ids));
  }
  const core::VectorSampleSource source(universe, std::move(word_sets));

  core::Config config;
  config.batch_count = 2;
  const auto result = core::similarity_at_scale_threaded(ranks, source, config);

  const auto n = result.n;
  TextTable table({"document A", "document B", "Jaccard", "verdict"});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) {
      const double jac = result.similarity.similarity(i, j);
      table.add_row({names[static_cast<std::size_t>(i)], names[static_cast<std::size_t>(j)],
                     fmt_fixed(jac, 3),
                     jac >= threshold ? "NEAR-DUPLICATE" : "distinct"});
    }
  }
  std::printf("All-pairs document similarity (word-set Jaccard, threshold %.2f):\n\n",
              threshold);
  table.print();
  return 0;
}
