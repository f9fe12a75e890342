#include "hi/task.h"

#include "common/strings.h"

namespace structura::hi {

Task MakeVerifyMatchTask(uint64_t id, const std::string& a,
                         const std::string& b, double prior, uint64_t ref) {
  Task t;
  t.id = id;
  t.type = Task::Type::kVerifyMatch;
  t.question = StrFormat(
      "Do \"%s\" and \"%s\" refer to the same entity?", a.c_str(),
      b.c_str());
  t.options = {"yes", "no"};
  t.prior = prior;
  t.ref = ref;
  return t;
}

Task MakeVerifyFactTask(uint64_t id, const std::string& subject,
                        const std::string& attribute,
                        const std::string& value, double prior,
                        uint64_t ref) {
  Task t;
  t.id = id;
  t.type = Task::Type::kVerifyFact;
  t.question =
      StrFormat("Is the %s of \"%s\" really \"%s\"?", attribute.c_str(),
                subject.c_str(), value.c_str());
  t.options = {"yes", "no"};
  t.prior = prior;
  t.ref = ref;
  return t;
}

Task MakeChooseValueTask(uint64_t id, const std::string& subject,
                         const std::string& attribute,
                         std::vector<std::string> candidates, double prior,
                         uint64_t ref) {
  Task t;
  t.id = id;
  t.type = Task::Type::kChooseValue;
  t.question = StrFormat("Which is the correct %s of \"%s\"?",
                         attribute.c_str(), subject.c_str());
  t.options = std::move(candidates);
  t.prior = prior;
  t.ref = ref;
  return t;
}

}  // namespace structura::hi
