// TF-IDF embeddings and RAG-style test selection.
//
// §3.2: "Our system automatically selects relevant tests for each path using
// LLM-based similarity search over test embeddings." The offline substitute
// embeds each @test function's source with TF-IDF over identifier tokens and
// ranks tests by cosine similarity against a textual description of the
// execution path (entry function, guards, target). Like the paper's
// selection, the result is an over-approximation fed to the concolic engine.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/paths.hpp"
#include "minilang/ast.hpp"

namespace lisa::inference {

/// Sparse TF-IDF vector: (vocabulary index, weight) pairs in ascending index
/// order. The vocabulary is sorted by bytes, so index order is word order.
using SparseVector = std::vector<std::pair<std::size_t, double>>;

class TfIdfModel {
 public:
  /// Fits document frequencies over the corpus of documents.
  void fit(const std::vector<std::string>& documents);

  /// Embeds one text under the fitted model (L2-normalized TF-IDF). Words
  /// outside the vocabulary are dropped.
  [[nodiscard]] SparseVector embed(std::string_view text) const;

  /// Cosine similarity of two embeddings (0 when either is empty).
  [[nodiscard]] static double cosine(const SparseVector& a, const SparseVector& b);

  [[nodiscard]] std::size_t vocabulary_size() const { return idf_.size(); }

 private:
  friend class TestSelector;
  using Words = std::vector<std::string_view>;

  /// Fits the model over documents already split into lower-case words, and
  /// returns each document's vocabulary indices, sorted.
  std::vector<std::vector<std::size_t>> fit_words(const std::vector<Words>& documents);
  /// The vocabulary index of `word`, or npos.
  [[nodiscard]] std::size_t index_of(std::string_view word) const;
  /// The vocabulary indices of `words` in ascending order, with repeats and
  /// without the words outside the vocabulary.
  [[nodiscard]] std::vector<std::size_t> sorted_indices(const Words& words) const;
  [[nodiscard]] std::string_view word(std::size_t index) const;
  /// The L2-normalized TF-IDF vector of a document's sorted word indices.
  [[nodiscard]] SparseVector weigh(const std::vector<std::size_t>& indices) const;

  std::string words_;              // the vocabulary, sorted and distinct, end to end
  std::vector<std::size_t> ends_;  // where each vocabulary word ends in words_
  std::vector<double> idf_;        // per vocabulary index
};

struct TestRanking {
  std::string test_name;
  double score = 0.0;
};

/// Ranks a program's @test functions against path/contract descriptions.
class TestSelector {
 public:
  /// Fits a model over all @test functions of `program` (which must outlive
  /// the selector).
  explicit TestSelector(const minilang::Program& program);

  /// All tests ranked by similarity to `query`, best first. Deterministic:
  /// ties break by test name.
  [[nodiscard]] std::vector<TestRanking> rank(const std::string& query) const;

  /// Top `max_tests` tests with score >= `min_score`.
  [[nodiscard]] std::vector<std::string> select(const std::string& query,
                                                std::size_t max_tests,
                                                double min_score = 0.0) const;

  [[nodiscard]] std::size_t test_count() const { return tests_.size(); }

  /// Textual description of an execution path for use as a query — the
  /// "features involved by this execution path" of §3.2.
  [[nodiscard]] static std::string describe_path(const analysis::ExecutionPath& path);

 private:
  struct TestDoc {
    std::string name;
    SparseVector embedding;
  };
  TfIdfModel model_;
  std::vector<TestDoc> tests_;
};

}  // namespace lisa::inference
