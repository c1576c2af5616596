#include "engine/block_source.h"

#include "common/check.h"

namespace cgs::engine {

EngineBlockSource::EngineBlockSource(SamplerEngine& engine,
                                     std::uint64_t word_seed,
                                     std::size_t block)
    : engine_(&engine), words_(word_seed), block_(block) {
  CGS_CHECK_MSG(block >= 1, "block source needs a positive block size");
}

void EngineBlockSource::fill_base(std::span<std::int32_t> out) {
  engine_->sample(out);
}

void EngineBlockSource::fill_words(std::span<std::uint64_t> out) {
  words_.fill_words(out);
}

const char* EngineBlockSource::name() const {
  switch (engine_->backend()) {
    case Backend::kCompiled: return "engine(compiled)";
    case Backend::kWide: return "engine(wide-256)";
    case Backend::kAuto: break;
  }
  return "engine";
}

}  // namespace cgs::engine
