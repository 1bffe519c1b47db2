// Fixture: mutable namespace-scope state -> mutable-global.
namespace fixture {

int g_runs_started = 0;

}  // namespace fixture
