#ifndef STRUCTURA_UNCERTAINTY_CONFIDENCE_H_
#define STRUCTURA_UNCERTAINTY_CONFIDENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ie/fact.h"

namespace structura::uncertainty {

/// Combines independent confidences for the *same* claim (two extractors
/// both found population=233,209): noisy-OR, 1 - prod(1 - p_i).
double CombineIndependent(const std::vector<double>& confidences);

/// One alternative value for an attribute with its probability.
struct ValueAlternative {
  std::string value;
  double probability = 0;
  std::vector<uint64_t> supporting_facts;  // fact ids
};

/// The system's belief about one (subject, attribute): a distribution
/// over mutually exclusive alternatives (x-tuple semantics). Probabilities
/// sum to <= 1; the remainder is "no value".
struct AttributeBelief {
  std::string subject;
  std::string attribute;
  std::vector<ValueAlternative> alternatives;

  /// Highest-probability alternative, or nullptr when empty.
  const ValueAlternative* Top() const;
};

/// Groups raw extracted facts into beliefs: facts agreeing on (subject,
/// attribute, value) reinforce via noisy-OR; distinct values become
/// competing alternatives normalized to their combined mass. Beliefs are
/// returned ordered by (subject, attribute), one per key, so callers may
/// binary-search them.
std::vector<AttributeBelief> BuildBeliefs(const ie::FactSet& facts);

/// Human feedback applied to a belief: a confirmed value becomes
/// probability `confirm_weight` (and the rest renormalized); a rejected
/// value is zeroed and the remainder renormalized.
void ConfirmValue(AttributeBelief* belief, const std::string& value,
                  double confirm_weight = 1.0);
void RejectValue(AttributeBelief* belief, const std::string& value);

}  // namespace structura::uncertainty

#endif  // STRUCTURA_UNCERTAINTY_CONFIDENCE_H_
