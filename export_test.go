package preexec

// TimingFor is the timing configuration the engine derives from cfg for a
// run in mode, so tests can repeat an engine's runs through
// timing.RunContext.
func TimingFor(cfg Config, mode Mode) TimingConfig { return cfg.Normalized().timing(mode) }

// ReplayWaiting gauges the cells blocked on another cell's replay in the
// replay memo that j's engine shares with the jobs planned beside it.
func ReplayWaiting(j Job) int64 { return j.Engine.plan.replays.Stats().Waiting }
