#include "scenarios.h"

namespace sablock::bench {

void RegisterAllScenarios(report::BenchRegistry& registry) {
  // Explicit registration (like BlockerRegistry::Global()'s) so the
  // scenario objects survive static-library linking — self-registering
  // globals in an archive member with no referenced symbol get dropped.
  RegisterFig5Collision(registry);
  RegisterFig6Distributions(registry);
  RegisterFig7SemhashCora(registry);
  RegisterFig8SemhashVoter(registry);
  RegisterFig9LshVsSalsh(registry);
  RegisterFig12MetaBlocking(registry);
  RegisterFig13Scalability(registry);
  RegisterTable1Patterns(registry);
  RegisterTable2TaxonomyVariants(registry);
  RegisterTable3Fig11Baselines(registry);
  RegisterAblationSemantics(registry);
  RegisterEngineScaling(registry);
  RegisterLshVariants(registry);
  RegisterMicro(registry);
  RegisterServiceLatency(registry);
  RegisterSnapshotIo(registry);
  RegisterProgressiveRecall(registry);
}

void EnsureScenariosRegistered() {
  static bool registered = [] {
    RegisterAllScenarios(report::BenchRegistry::Global());
    return true;
  }();
  (void)registered;
}

}  // namespace sablock::bench
