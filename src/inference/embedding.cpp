#include "inference/embedding.hpp"

#include <algorithm>
#include <cmath>

#include "minilang/printer.hpp"
#include "support/strings.hpp"

namespace lisa::inference {

namespace {

/// The lower-cased copy of each text, and its words as views into that copy.
struct SplitTexts {
  std::vector<std::string> lowered;
  std::vector<std::vector<std::string_view>> words;

  explicit SplitTexts(const std::vector<std::string>& texts) {
    lowered.reserve(texts.size());
    for (const std::string& text : texts) lowered.push_back(support::to_lower(text));
    for (const std::string& text : lowered) words.push_back(support::word_views(text));
  }
  SplitTexts(const SplitTexts&) = delete;
  SplitTexts& operator=(const SplitTexts&) = delete;
};

}  // namespace

void TfIdfModel::fit(const std::vector<std::string>& documents) {
  (void)fit_words(SplitTexts(documents).words);
}

std::vector<std::vector<std::size_t>> TfIdfModel::fit_words(const std::vector<Words>& documents) {
  Words vocabulary;
  for (const Words& doc : documents) vocabulary.insert(vocabulary.end(), doc.begin(), doc.end());
  std::sort(vocabulary.begin(), vocabulary.end());
  vocabulary.erase(std::unique(vocabulary.begin(), vocabulary.end()), vocabulary.end());
  words_.clear();
  ends_.clear();
  for (const std::string_view word : vocabulary) {
    words_ += word;
    ends_.push_back(words_.size());
  }

  std::vector<std::size_t> doc_frequency(vocabulary.size(), 0);
  std::vector<std::vector<std::size_t>> indices;
  indices.reserve(documents.size());
  for (const Words& doc : documents) {
    const std::vector<std::size_t>& doc_indices = indices.emplace_back(sorted_indices(doc));
    for (std::size_t i = 0; i < doc_indices.size(); ++i)
      if (i == 0 || doc_indices[i] != doc_indices[i - 1]) ++doc_frequency[doc_indices[i]];
  }
  idf_.clear();
  idf_.reserve(doc_frequency.size());
  for (const std::size_t frequency : doc_frequency) {
    // Smoothed IDF; never negative.
    idf_.push_back(std::log((1.0 + static_cast<double>(documents.size())) /
                            (1.0 + static_cast<double>(frequency))) +
                   1.0);
  }
  return indices;
}

std::string_view TfIdfModel::word(std::size_t index) const {
  const std::size_t begin = index == 0 ? 0 : ends_[index - 1];
  return std::string_view(words_).substr(begin, ends_[index] - begin);
}

std::size_t TfIdfModel::index_of(std::string_view token) const {
  std::size_t low = 0;
  std::size_t high = ends_.size();
  while (low < high) {
    const std::size_t mid = low + (high - low) / 2;
    if (word(mid) < token) {
      low = mid + 1;
    } else {
      high = mid;
    }
  }
  return low < ends_.size() && word(low) == token ? low : std::string_view::npos;
}

std::vector<std::size_t> TfIdfModel::sorted_indices(const Words& words) const {
  std::vector<std::size_t> indices;
  indices.reserve(words.size());
  for (const std::string_view token : words) {
    const std::size_t index = index_of(token);
    if (index != std::string_view::npos) indices.push_back(index);  // else out-of-vocabulary
  }
  std::sort(indices.begin(), indices.end());
  return indices;
}

SparseVector TfIdfModel::weigh(const std::vector<std::size_t>& indices) const {
  // Index order is the words' byte order, so this norm and each cosine()
  // add their terms in word order, and every score is the same bit for bit
  // however the vectors were built.
  SparseVector out;
  double norm = 0.0;
  for (std::size_t i = 0; i < indices.size();) {
    std::size_t run = i + 1;
    while (run < indices.size() && indices[run] == indices[i]) ++run;
    const double weight = static_cast<double>(run - i) * idf_[indices[i]];
    out.emplace_back(indices[i], weight);
    norm += weight * weight;
    i = run;
  }
  if (norm > 0.0) {
    const double inv = 1.0 / std::sqrt(norm);
    for (auto& [index, weight] : out) weight *= inv;
  }
  return out;
}

SparseVector TfIdfModel::embed(std::string_view text) const {
  const std::string lowered = support::to_lower(text);
  return weigh(sorted_indices(support::word_views(lowered)));
}

double TfIdfModel::cosine(const SparseVector& a, const SparseVector& b) {
  double dot = 0.0;
  auto left = a.begin();
  auto right = b.begin();
  while (left != a.end() && right != b.end()) {
    if (left->first < right->first) {
      ++left;
    } else if (right->first < left->first) {
      ++right;
    } else {
      dot += left->second * right->second;
      ++left;
      ++right;
    }
  }
  return dot;  // inputs are L2-normalized
}

TestSelector::TestSelector(const minilang::Program& program) {
  std::vector<std::string> texts;
  for (const minilang::FuncDecl* test : program.functions_with("test")) {
    tests_.push_back(TestDoc{test->name, {}});
    texts.push_back(minilang::function_text(*test));
  }
  const SplitTexts split(texts);
  const std::vector<std::vector<std::size_t>> indices = model_.fit_words(split.words);
  for (std::size_t i = 0; i < tests_.size(); ++i) tests_[i].embedding = model_.weigh(indices[i]);
}

std::vector<TestRanking> TestSelector::rank(const std::string& query) const {
  const SparseVector embedded = model_.embed(query);
  std::vector<TestRanking> out;
  out.reserve(tests_.size());
  for (const TestDoc& test : tests_)
    out.push_back(TestRanking{test.name, TfIdfModel::cosine(embedded, test.embedding)});
  std::stable_sort(out.begin(), out.end(), [](const TestRanking& a, const TestRanking& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.test_name < b.test_name;
  });
  return out;
}

std::vector<std::string> TestSelector::select(const std::string& query, std::size_t max_tests,
                                              double min_score) const {
  std::vector<std::string> out;
  for (const TestRanking& ranking : rank(query)) {
    if (out.size() >= max_tests) break;
    if (ranking.score < min_score) break;  // rankings are sorted
    out.push_back(ranking.test_name);
  }
  return out;
}

std::string TestSelector::describe_path(const analysis::ExecutionPath& path) {
  std::string out;
  for (const std::string& fn : path.call_chain) out += fn + " ";
  out += path.target_function + " ";
  for (const analysis::GuardStep& guard : path.guards) {
    out += guard.text + " ";
    out += guard.taken ? "taken " : "not taken ";
  }
  if (path.renamed_contract) out += path.renamed_contract->to_string();
  return out;
}

}  // namespace lisa::inference
