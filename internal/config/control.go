package config

import (
	"fmt"

	"uqsim/internal/control"
	"uqsim/internal/sim"
)

// applyControl decodes a control.json document and attaches the
// self-healing control plane it describes to an assembled simulation.
// Name references are validated here with did-you-mean suggestions;
// semantic validation (bounds, detector prerequisites) happens in
// control.Attach. When ejection is enabled the plane's call observer is
// wired as the simulation's OnCallResult hook.
func applyControl(s *sim.Sim, data []byte) (*control.Plane, error) {
	var cf ControlFile
	if err := DecodeStrict("control.json", data, &cf); err != nil {
		return nil, err
	}

	var deployed []string
	for _, dep := range s.Deployments() {
		deployed = append(deployed, dep.Name)
	}
	knownService := func(name string) bool {
		for _, d := range deployed {
			if d == name {
				return true
			}
		}
		return false
	}
	var machines []string
	for _, m := range s.Cluster().Machines() {
		machines = append(machines, m.Name)
	}
	checkMachines := func(key string, names []string) error {
		for j, name := range names {
			if _, ok := s.Cluster().Machine(name); !ok {
				return unknownName("control.json", fmt.Sprintf("%s[%d]", key, j), "machine", name, machines)
			}
		}
		return nil
	}

	cfg := control.Config{Services: cf.Services, Vantage: cf.Vantage}
	if cf.Vantage != "" {
		if _, ok := s.Cluster().Machine(cf.Vantage); !ok {
			return nil, unknownName("control.json", "vantage", "machine", cf.Vantage, machines)
		}
	}
	for i, name := range cf.Services {
		if !knownService(name) {
			return nil, unknownName("control.json", fmt.Sprintf("services[%d]", i), "service", name, deployed)
		}
	}
	if cf.Heartbeat != nil {
		cfg.Detector = &control.DetectorConfig{
			Period:        fromMs(cf.Heartbeat.PeriodMs),
			Jitter:        cf.Heartbeat.Jitter,
			CheckInterval: fromMs(cf.Heartbeat.CheckIntervalMs),
			PhiThreshold:  cf.Heartbeat.PhiThreshold,
			MinSamples:    cf.Heartbeat.MinSamples,
		}
	}
	if cf.Ejection != nil {
		cfg.Ejection = &control.EjectionConfig{
			Interval:           fromMs(cf.Ejection.IntervalMs),
			FailureRatio:       cf.Ejection.FailureRatio,
			LatencyFactor:      cf.Ejection.LatencyFactor,
			Quantile:           cf.Ejection.Quantile,
			MinRequests:        cf.Ejection.MinRequests,
			MinHealthyFraction: cf.Ejection.MinHealthyFraction,
			Probation:          fromMs(cf.Ejection.ProbationMs),
		}
	}
	if cf.Failover != nil {
		if err := checkMachines("failover.machines", cf.Failover.Machines); err != nil {
			return nil, err
		}
		cfg.Failover = &control.FailoverConfig{
			RestartDelay: fromMs(cf.Failover.RestartDelayMs),
			Machines:     cf.Failover.Machines,
		}
	}
	if cf.RegionFailover != nil {
		cfg.RegionFailover = &control.RegionFailoverConfig{
			CheckInterval: fromMs(cf.RegionFailover.CheckIntervalMs),
			DrainDelay:    fromMs(cf.RegionFailover.DrainDelayMs),
		}
	}
	for i, as := range cf.Autoscale {
		if !knownService(as.Service) {
			return nil, unknownName("control.json", fmt.Sprintf("autoscale[%d].service", i), "service", as.Service, deployed)
		}
		if err := checkMachines(fmt.Sprintf("autoscale[%d].machines", i), as.Machines); err != nil {
			return nil, err
		}
		cfg.Autoscale = append(cfg.Autoscale, control.AutoscaleConfig{
			Service:           as.Service,
			Min:               as.Min,
			Max:               as.Max,
			TargetUtilization: as.TargetUtilization,
			TargetQueue:       as.TargetQueue,
			Interval:          fromMs(as.IntervalMs),
			UpCooldown:        fromMs(as.UpCooldownMs),
			DownCooldown:      fromMs(as.DownCooldownMs),
			Tolerance:         as.Tolerance,
			Cores:             as.Cores,
			Machines:          as.Machines,
		})
	}

	plane, err := control.Attach(s, cfg)
	if err != nil {
		return nil, fmt.Errorf("config: control.json: %w", err)
	}
	if cfg.Ejection != nil {
		s.OnCallResult = plane.ObserveCall
	}
	return plane, nil
}
