#ifndef STRUCTURA_IE_PIPELINE_H_
#define STRUCTURA_IE_PIPELINE_H_

#include <vector>

#include "ie/extractor.h"
#include "text/document.h"

namespace structura::ie {

/// Runs `extractors` over every document sequentially; facts are returned
/// in (document, extractor) order with dense ids.
FactSet RunExtractors(const std::vector<const Extractor*>& extractors,
                      const text::DocumentCollection& docs);

/// Convenience: non-owning views of owning pointers.
std::vector<const Extractor*> Views(const std::vector<ExtractorPtr>& v);

}  // namespace structura::ie

#endif  // STRUCTURA_IE_PIPELINE_H_
