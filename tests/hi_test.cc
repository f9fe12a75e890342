#include <map>

#include <gtest/gtest.h>

#include "common/random.h"

#include "hi/aggregation.h"
#include "hi/simulated_user.h"
#include "hi/task.h"

namespace structura::hi {
namespace {

TEST(TaskTest, RenderedQuestions) {
  Task t = MakeVerifyMatchTask(1, "David Smith", "D. Smith", 0.8, 5);
  EXPECT_NE(t.question.find("David Smith"), std::string::npos);
  EXPECT_EQ(t.options, (std::vector<std::string>{"yes", "no"}));
  EXPECT_EQ(t.ref, 5u);

  Task c = MakeChooseValueTask(2, "Madison", "temp_01", {"20", "90"},
                               0.5, 3);
  EXPECT_EQ(c.options.size(), 2u);
  EXPECT_NE(c.question.find("temp_01"), std::string::npos);
}

TEST(SimulatedUserTest, AccuracyIsCalibrated) {
  SimulatedUser::Profile p;
  p.name = "u";
  p.accuracy = 0.8;
  p.seed = 3;
  SimulatedUser user(p);
  Task task = MakeVerifyFactTask(1, "s", "a", "v", 0.5, 0);
  int correct = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (user.Respond(task, "yes").choice == "yes") ++correct;
  }
  EXPECT_NEAR(static_cast<double>(correct) / n, 0.8, 0.03);
}

TEST(SimulatedUserTest, SpammerIgnoresTruth) {
  SimulatedUser::Profile p;
  p.name = "spam";
  p.accuracy = 1.0;
  p.spam_rate = 1.0;
  p.seed = 4;
  SimulatedUser user(p);
  Task task = MakeVerifyFactTask(1, "s", "a", "v", 0.5, 0);
  int yes = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (user.Respond(task, "yes").choice == "yes") ++yes;
  }
  EXPECT_NEAR(static_cast<double>(yes) / n, 0.5, 0.05);
}

TEST(MakeCrowdTest, SpreadsAccuracy) {
  auto crowd = MakeCrowd(5, 0.6, 1.0, 9);
  ASSERT_EQ(crowd.size(), 5u);
  EXPECT_DOUBLE_EQ(crowd.front().true_accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(crowd.back().true_accuracy(), 1.0);
}

std::vector<Answer> Answers(
    uint64_t task, const std::vector<std::pair<std::string, std::string>>&
                       user_choices) {
  std::vector<Answer> out;
  for (const auto& [user, choice] : user_choices) {
    out.push_back(Answer{task, user, choice});
  }
  return out;
}

TEST(MajorityVoteTest, PicksPlurality) {
  auto agg = MajorityVote(
      Answers(1, {{"a", "yes"}, {"b", "yes"}, {"c", "no"}}));
  EXPECT_EQ(agg.choice, "yes");
  EXPECT_NEAR(agg.confidence, 2.0 / 3.0, 1e-9);
}

TEST(MajorityVoteTest, DeterministicTieBreak) {
  auto agg = MajorityVote(Answers(1, {{"a", "no"}, {"b", "yes"}}));
  EXPECT_EQ(agg.choice, "no");  // lexicographically smaller
}

TEST(WeightedVoteTest, ReputationOutweighsCount) {
  std::map<std::string, double> weights{
      {"expert", 0.95}, {"troll1", 0.1}, {"troll2", 0.1}};
  auto agg = WeightedVote(
      Answers(1, {{"expert", "yes"}, {"troll1", "no"}, {"troll2", "no"}}),
      weights);
  EXPECT_EQ(agg.choice, "yes");
}

TEST(DawidSkeneTest, RecoversUserQuality) {
  // 40 binary tasks; 3 good users (always right), 2 spammers answering
  // "no" always. Truth is "yes" for even tasks, "no" for odd.
  std::vector<Answer> answers;
  std::map<uint64_t, std::vector<std::string>> options;
  for (uint64_t t = 1; t <= 40; ++t) {
    std::string truth = (t % 2 == 0) ? "yes" : "no";
    options[t] = {"yes", "no"};
    for (const char* good : {"g1", "g2", "g3"}) {
      answers.push_back(Answer{t, good, truth});
    }
    for (const char* bad : {"b1", "b2"}) {
      answers.push_back(Answer{t, bad, "no"});
    }
  }
  DawidSkeneResult result = DawidSkene(answers, options);
  for (uint64_t t = 1; t <= 40; ++t) {
    std::string truth = (t % 2 == 0) ? "yes" : "no";
    EXPECT_EQ(result.task_answers[t].choice, truth) << t;
  }
  EXPECT_GT(result.user_accuracy["g1"], 0.9);
  // Spammers agree with truth only on odd tasks (half the time).
  EXPECT_LT(result.user_accuracy["b1"], 0.8);
  EXPECT_GT(result.iterations_run, 0);
}

TEST(DawidSkeneTest, AtLeastAsGoodAsMajorityWithRandomSpammers) {
  // Spammers outnumber experts per task but answer at random; experts are
  // consistent, so EM should learn to downweight the spam.
  std::vector<Answer> answers;
  std::map<uint64_t, std::vector<std::string>> options;
  size_t majority_correct = 0, ds_correct = 0;
  const uint64_t kTasks = 60;
  Rng rng(11);
  std::vector<std::string> truths;
  for (uint64_t t = 1; t <= kTasks; ++t) {
    std::string truth = rng.NextBool(0.5) ? "yes" : "no";
    truths.push_back(truth);
    options[t] = {"yes", "no"};
    answers.push_back(Answer{t, "e1", truth});
    answers.push_back(Answer{t, "e2", truth});
    for (const char* s : {"s1", "s2", "s3"}) {
      answers.push_back(Answer{t, s, rng.NextBool(0.5) ? "yes" : "no"});
    }
  }
  std::map<uint64_t, std::vector<Answer>> per_task;
  for (const Answer& a : answers) per_task[a.task_id].push_back(a);
  DawidSkeneResult ds = DawidSkene(answers, options);
  for (uint64_t t = 1; t <= kTasks; ++t) {
    if (MajorityVote(per_task[t]).choice == truths[t - 1]) {
      ++majority_correct;
    }
    if (ds.task_answers[t].choice == truths[t - 1]) ++ds_correct;
  }
  EXPECT_GE(ds_correct, majority_correct);
  EXPECT_GE(ds_correct, kTasks - 3);
  // EM should rank the experts above the spammers.
  EXPECT_GT(ds.user_accuracy["e1"], ds.user_accuracy["s1"]);
}

}  // namespace
}  // namespace structura::hi
