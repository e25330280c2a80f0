// Tests for the simulated LLM substrate: tokenizers, feature extraction,
// personas, chat behaviour, and the fine-tuning trainer.
#include <gtest/gtest.h>

#include "dataset/drbml.hpp"
#include "llm/features.hpp"
#include "llm/finetune.hpp"
#include "llm/model.hpp"
#include "llm/persona.hpp"
#include "llm/tokenizer.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace drbml::llm {
namespace {

// ------------------------------------------------------------- tokenizer

TEST(SimpleTokenizer, SplitsCodeTokens) {
  SimpleTokenizer tok;
  auto tokens = tok.tokenize("a[i+1] = a[i] + 1;");
  // a [ i + 1 ] = a [ i ] + 1 ;
  EXPECT_EQ(tokens.size(), 14u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "[");
}

TEST(SimpleTokenizer, TwoCharOperatorsAreOneToken) {
  SimpleTokenizer tok;
  auto tokens = tok.tokenize("x += 1; y == z; i++;");
  int ops = 0;
  for (const auto& t : tokens) {
    if (t == "+=" || t == "==" || t == "++") ++ops;
  }
  EXPECT_EQ(ops, 3);
}

TEST(SimpleTokenizer, LongIdentifiersChunked) {
  SimpleTokenizer tok;
  auto tokens = tok.tokenize("extraordinarily_long_identifier");
  EXPECT_GT(tokens.size(), 1u);
  std::string joined;
  for (const auto& t : tokens) joined += t;
  EXPECT_EQ(joined, "extraordinarily_long_identifier");
}

TEST(SimpleTokenizer, CountMonotonicInLength) {
  SimpleTokenizer tok;
  const int small = tok.count_tokens("int x = 1;");
  const int large = tok.count_tokens(
      "int x = 1; int y = 2; int z = x + y; printf(\"%d\", z);");
  EXPECT_LT(small, large);
}

TEST(Bpe, EncodeDecodeRoundTrips) {
  BpeTokenizer bpe;
  std::vector<std::string> corpus = {
      "for (int i = 0; i < n; i++) a[i] = a[i] + 1;",
      "for (int j = 0; j < n; j++) b[j] = b[j] * 2;",
  };
  bpe.train(corpus, 50);
  EXPECT_GT(bpe.merge_count(), 0u);
  for (const auto& text : corpus) {
    EXPECT_EQ(bpe.decode(bpe.encode(text)), text);
  }
  // Unseen text still round-trips (bytes always available).
  const std::string unseen = "while (k != 7) { k <<= 1; }";
  EXPECT_EQ(bpe.decode(bpe.encode(unseen)), unseen);
}

TEST(Bpe, MergesCompressRepeatedPatterns) {
  BpeTokenizer bpe;
  std::string text;
  for (int i = 0; i < 50; ++i) text += "a[i] = a[i] + 1; ";
  bpe.train({text}, 100);
  const auto ids = bpe.encode(text);
  EXPECT_LT(ids.size(), text.size() / 3);
}

TEST(Bpe, UntrainedEncodesBytes) {
  BpeTokenizer bpe;
  const std::string s = "abc";
  const auto ids = bpe.encode(s);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 'a');
}

// ------------------------------------------------------------- features

TEST(Features, DetectsConstructs) {
  ProgramFeatures f = extract_features(
      "int main() {\n"
      "  int s = 0;\n"
      "#pragma omp parallel for reduction(+:s) schedule(static)\n"
      "  for (int i = 0; i < 10; i++) s += i;\n"
      "  return s;\n"
      "}\n");
  EXPECT_TRUE(f.parsed);
  EXPECT_TRUE(f.has_parallel_construct);
  EXPECT_TRUE(f.has_reduction);
  EXPECT_FALSE(f.has_critical);
  EXPECT_FALSE(f.static_race_conservative);
}

TEST(Features, RacyLoopYieldsEvidence) {
  ProgramFeatures f = extract_features(
      "int main() {\n"
      "  int a[50];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 49; i++) a[i] = a[i+1];\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(f.static_race_conservative);
  EXPECT_TRUE(f.static_race_optimistic);
  EXPECT_TRUE(f.evidence_consistent());
  EXPECT_FALSE(f.static_pairs.empty());
}

TEST(Features, IndirectIndexIsUncertain) {
  ProgramFeatures f = extract_features(
      "int main() {\n"
      "  int idx[50];\n"
      "  int a[50];\n"
      "  for (int i = 0; i < 50; i++) idx[i] = i;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 50; i++) a[idx[i]] = i;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_FALSE(f.evidence_consistent());
}

TEST(Features, UnparseableCodeIsFlagged) {
  ProgramFeatures f = extract_features("this is not C at all {{{");
  EXPECT_FALSE(f.parsed);
}

// ------------------------------------------------------------- personas

TEST(Personas, FourModelsWithPaperContextWindows) {
  const auto& all = all_personas();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(gpt35_persona().context_tokens, 16384);
  EXPECT_EQ(gpt4_persona().context_tokens, 8192);
  EXPECT_EQ(llama2_persona().context_tokens, 4096);
  EXPECT_EQ(starchat_persona().context_tokens, 8192);
}

TEST(Personas, OnlyOpenSourceModelsFinetune) {
  EXPECT_FALSE(gpt35_persona().open_source);
  EXPECT_FALSE(gpt4_persona().open_source);
  EXPECT_TRUE(llama2_persona().open_source);
  EXPECT_TRUE(starchat_persona().open_source);
}

TEST(Personas, RatesDefinedForEveryStyle) {
  for (const Persona& p : all_personas()) {
    for (auto style : {prompts::Style::P1, prompts::Style::P2,
                       prompts::Style::P3, prompts::Style::BP2,
                       prompts::Style::BP1}) {
      const DetectionRates& r = p.rates_for(style);
      EXPECT_GT(r.yes_given_evidence_yes, 0.0);
      EXPECT_LT(r.yes_given_evidence_yes, 1.0);
    }
  }
}

// ------------------------------------------------------------- chat model

const char* kRacyCode =
    "int main() {\n"
    "  int a[60];\n"
    "#pragma omp parallel for\n"
    "  for (int i = 0; i < 59; i++) a[i] = a[i+1];\n"
    "  return 0;\n"
    "}\n";

TEST(ChatModel, DeterministicReplies) {
  ChatModel model(gpt4_persona());
  const auto chat = prompts::detection_chat(prompts::Style::P1, kRacyCode);
  const Reply a = model.chat(chat);
  const Reply b = model.chat(chat);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.prompt_tokens, b.prompt_tokens);
}

TEST(ChatModel, RepliesContainVerdictWord) {
  for (const Persona& p : all_personas()) {
    ChatModel model(p);
    const Reply r =
        model.chat(prompts::detection_chat(prompts::Style::P1, kRacyCode));
    const std::string lower = to_lower(r.text);
    EXPECT_TRUE(lower.find("yes") != std::string::npos ||
                lower.find("no") != std::string::npos)
        << p.name << ": " << r.text;
  }
}

TEST(ChatModel, ContextWindowEnforced) {
  Persona tiny = gpt4_persona();
  tiny.context_tokens = 10;
  ChatModel model(tiny);
  const Reply r =
      model.chat(prompts::detection_chat(prompts::Style::P1, kRacyCode));
  EXPECT_TRUE(r.context_exceeded);
}

TEST(ChatModel, OversizedCorpusEntriesExceedLlama2Window) {
  // The three oversized entries must not fit in the 4k window.
  ChatModel llama(llama2_persona());
  int exceeded = 0;
  for (const auto& e : dataset::dataset()) {
    const Reply r = llama.chat(
        prompts::detection_chat(prompts::Style::P1, e.trimmed_code));
    if (r.context_exceeded) ++exceeded;
  }
  EXPECT_EQ(exceeded, 3);
}

TEST(ChatModel, VaridReplyParsesAsStructuredOrProse) {
  ChatModel model(gpt4_persona());
  const Reply r = model.chat(prompts::varid_chat(kRacyCode));
  EXPECT_FALSE(r.text.empty());
}

TEST(ChatModel, ExtractCodeFindsEmbeddedProgram) {
  const std::string prompt =
      "You are an expert.\nExamine this.\n\n#include <stdio.h>\nint main() "
      "{ return 0; }\n";
  const std::string code = extract_code_from_prompt(prompt);
  EXPECT_EQ(code.find("#include"), 0u);
}

// ------------------------------------------------------------- fine-tuning

TEST(Finetune, FeaturizeIsDeterministicAndNormalized) {
  const FeatureVec a = featurize(kRacyCode);
  const FeatureVec b = featurize(kRacyCode);
  EXPECT_EQ(a.x, b.x);
  double norm = 0;
  for (int i = 0; i < kTokenDim; ++i) {
    norm += a.x[static_cast<std::size_t>(i)] * a.x[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(Finetune, AdapterLearnsSeparableLabels) {
  // Trained on evidence-consistent programs, the adapter must push the
  // decision toward the labels.
  std::vector<TrainSample> train;
  for (const auto& e : dataset::dataset()) {
    if (train.size() >= 60) break;
    TrainSample s;
    s.code = e.trimmed_code;
    s.label = e.data_race == 1;
    train.push_back(std::move(s));
  }
  ChatModel base(starchat_persona());
  FinetuneConfig config = starchat_finetune_config();
  config.alpha_scale = 1.0;  // uncapped for the separability check
  const Adapter adapter =
      finetune_detection(base, prompts::Style::P1, train, config);

  int correct = 0;
  for (const auto& s : train) {
    const double delta = adapter.predict(featurize(s.code));
    if ((delta > 0) == s.label) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(train.size() * 3) / 4);
}

TEST(Finetune, AlphaScalesAdapterOutput) {
  std::vector<TrainSample> train;
  for (const auto& e : dataset::dataset()) {
    if (train.size() >= 40) break;
    train.push_back({e.trimmed_code, e.data_race == 1});
  }
  ChatModel base(llama2_persona());
  FinetuneConfig config = llama2_finetune_config();
  config.alpha_scale = 1.0;
  const Adapter full =
      finetune_detection(base, prompts::Style::P1, train, config);
  config.alpha_scale = 0.1;
  const Adapter damped =
      finetune_detection(base, prompts::Style::P1, train, config);
  const FeatureVec f = featurize(train.front().code);
  EXPECT_NEAR(damped.predict(f), 0.1 * full.predict(f), 1e-9);
}

TEST(Finetune, EmptyTrainingSetYieldsZeroAdapter) {
  ChatModel base(llama2_persona());
  const Adapter adapter = finetune_detection(
      base, prompts::Style::P1, {}, llama2_finetune_config());
  EXPECT_EQ(adapter.predict(featurize(kRacyCode)), 0.0);
}

TEST(Finetune, AdapterChangesModelDecisionProbability) {
  ChatModel base(starchat_persona());
  const double before = base.decide(prompts::Style::P1, kRacyCode).p_yes;
  auto adapter = std::make_shared<Adapter>();
  adapter->u.fill(0.5);
  ChatModel tuned(starchat_persona());
  tuned.set_adapter(adapter);
  const double after = tuned.decide(prompts::Style::P1, kRacyCode).p_yes;
  EXPECT_NE(before, after);
}

TEST(Finetune, AdapterCheckpointRoundTrips) {
  std::vector<TrainSample> train;
  for (const auto& e : dataset::dataset()) {
    if (train.size() >= 30) break;
    train.push_back({e.trimmed_code, e.data_race == 1});
  }
  ChatModel base(starchat_persona());
  const Adapter trained = finetune_detection(
      base, prompts::Style::P1, train, starchat_finetune_config());
  const Adapter restored = Adapter::from_json(trained.to_json());
  EXPECT_EQ(restored.scale, trained.scale);
  const FeatureVec f = featurize(train.front().code);
  EXPECT_DOUBLE_EQ(restored.predict(f), trained.predict(f));
}

TEST(Finetune, CheckpointRejectsCorruptInput) {
  EXPECT_THROW((void)Adapter::from_json("{}"), Error);
  EXPECT_THROW((void)Adapter::from_json(
                   "{\"format\":\"drbml-lora-adapter-v1\",\"rank\":2,"
                   "\"scale\":1,\"u\":[1,2]}"),
               Error);
}

}  // namespace
}  // namespace drbml::llm
