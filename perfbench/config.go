package main

import (
	"fmt"
	"reflect"
	"time"

	"aimq/internal/core"
)

// servedDefaults marks the fields where aimq-serve's default flags differ
// from the library's zero-value defaults; the benchmark sets them as
// aimq-serve does.
var servedDefaults = map[string]string{
	"service.Config.Engine.OnFailure":                "aimq-serve -fail-degrade=true (library: FailAbort)",
	"service.Config.Logger":                          "aimq-serve's INFO text logger, writing to io.Discard",
	"service.LearnConfig.Workers":                    "aimq-serve -probe-workers 1 (library zero: GOMAXPROCS for the similarity sweep)",
	"webdb.ResilientConfig.Retry.MaxAttempts":        "aimq-serve -retry-attempts 3 (the library adds no middleware)",
	"webdb.ResilientConfig.Retry.BaseDelay":          "aimq-serve -retry-base 50ms",
	"webdb.ResilientConfig.Breaker.FailureThreshold": "aimq-serve -breaker-failures 5",
	"webdb.ResilientConfig.Breaker.OpenTimeout":      "aimq-serve -breaker-open 10s",
	"lifecycle.Config.Engine.OnFailure":              "aimq-serve passes its engine config to the controller",
	"lifecycle.Config.ProbationWindow":               "aimq-serve -refresh-probation 200 (library: no auto-rollback)",
	"lifecycle.Config.Logger":                        "aimq-serve's INFO text logger, writing to io.Discard",
}

// configLines lists every config field the workload runs with. Zero means
// the library default. "†" marks aimq-serve's flag defaults that differ
// from the library's; "*" marks this workload's departures from aimq-serve.
func configLines(w *workload) []string {
	marks := map[string]string{}
	for k, v := range servedDefaults {
		marks[k] = "† " + v
	}
	for _, d := range w.departures {
		marks[d.field] = "* " + d.why
	}
	var lines []string
	emit := func(path string, v reflect.Value) {
		line := fmt.Sprintf("%s = %s", path, render(v))
		if m, ok := marks[path]; ok {
			line += "   " + m
			delete(marks, path)
		}
		lines = append(lines, line)
	}
	walk("service.Config", reflect.ValueOf(w.serviceConfig()), emit)
	walk("service.LearnConfig", reflect.ValueOf(learnConfig()), emit)
	walk("webdb.ResilientConfig", reflect.ValueOf(resilientConfig()), emit)
	if w.open != nil {
		walk("lifecycle.Config", reflect.ValueOf(w.lifecycleConfig()), emit)
	}
	// Departures that are not config fields (wiring choices).
	for _, d := range w.departures {
		if _, ok := marks[d.field]; ok {
			lines = append(lines, fmt.Sprintf("%s = %s   * %s", d.field, d.value, d.why))
		}
	}
	return lines
}

var durationType = reflect.TypeOf(time.Duration(0))

// walk calls emit for every exported leaf field of a config struct.
func walk(path string, v reflect.Value, emit func(string, reflect.Value)) {
	if v.Kind() != reflect.Struct || v.Type() == durationType {
		emit(path, v)
		return
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		walk(path+"."+f.Name, v.Field(i), emit)
	}
}

func render(v reflect.Value) string {
	switch {
	case v.Type() == durationType:
		return time.Duration(v.Int()).String()
	case v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface:
		if v.IsNil() {
			return "nil"
		}
		return "set (" + v.Type().String() + ")"
	}
	if p, ok := v.Interface().(core.FailurePolicy); ok {
		if p == core.FailDegrade {
			return "FailDegrade"
		}
		return "FailAbort"
	}
	return fmt.Sprint(v.Interface())
}
