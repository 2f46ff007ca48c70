package serve

import "preexec"

// CoordinatorHome returns the backend address the coordinator routes the
// (bench, scale, cfg) cell to — a test hook that lets the chaos tests pick
// their fault target deterministically even though httptest backends get
// random ports (and therefore random ring placement) per run.
func (s *Server) CoordinatorHome(bench string, scale int, cfg preexec.Config) string {
	return s.coord.addrs[s.coord.pool.Order(routeKey(preexec.StageKeys(bench, scale, cfg)))[0]]
}
