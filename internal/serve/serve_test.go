package serve

import (
	"errors"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no tenants", Config{}},
		{"empty name", Config{Tenants: []TenantConfig{{Name: ""}}}},
		{"duplicate", Config{Tenants: []TenantConfig{{Name: "a"}, {Name: "a"}}}},
		{"negative slots", Config{Tenants: []TenantConfig{{Name: "a"}}, ComputeSlots: -1}},
	}
	for _, tc := range cases {
		if _, err := NewManager(tc.cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", tc.name, err)
		}
	}
}
