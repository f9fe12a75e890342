#ifndef STRUCTURA_HI_TASK_H_
#define STRUCTURA_HI_TASK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace structura::hi {

/// A question the system poses to humans. The paper's principle
/// (Section 3.3): isolate decisions that are hard for automatic
/// techniques but easy for people — verifying a match, confirming a
/// value — and route exactly those to users.
struct Task {
  enum class Type : uint8_t {
    kVerifyMatch,   // "Do A and B refer to the same entity?" yes/no
    kVerifyFact,    // "Is <attr> of <subject> really <value>?" yes/no
    kChooseValue,   // "Which value of <attr> is right for <subject>?"
  };

  uint64_t id = 0;
  Type type = Type::kVerifyFact;
  std::string question;              // rendered natural-language prompt
  std::vector<std::string> options;  // candidate answers ("yes","no",...)
  /// System's confidence in option[0] before asking; tasks near 0.5 are
  /// the most informative (the feedback round asks those first).
  double prior = 0.5;
  /// Opaque back-reference to the artifact under review (belief index,
  /// pair index...), interpreted by the caller.
  uint64_t ref = 0;
};

/// One human answer to a task.
struct Answer {
  uint64_t task_id = 0;
  std::string user;
  std::string choice;
};

/// Renders a yes/no match-verification task.
Task MakeVerifyMatchTask(uint64_t id, const std::string& a,
                         const std::string& b, double prior, uint64_t ref);

/// Renders a yes/no fact-verification task.
Task MakeVerifyFactTask(uint64_t id, const std::string& subject,
                        const std::string& attribute,
                        const std::string& value, double prior,
                        uint64_t ref);

/// Renders a choose-one task over candidate values.
Task MakeChooseValueTask(uint64_t id, const std::string& subject,
                         const std::string& attribute,
                         std::vector<std::string> candidates, double prior,
                         uint64_t ref);

}  // namespace structura::hi

#endif  // STRUCTURA_HI_TASK_H_
