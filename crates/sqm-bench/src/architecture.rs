#![doc = include_str!("../../../ARCHITECTURE.md")]
