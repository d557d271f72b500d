//! The model's normalization services, one per LayerNorm site and method.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use iterl2norm::service::{NormService, ServiceConfig};
use iterl2norm::{MethodSpec, NormError};

/// A pool of [`NormService`]s over one layer shape: each *site* is a set
/// of affine parameters (one per LayerNorm location in a model), and
/// services are materialized lazily per `(site, method)` and cached — so
/// every forward pass, from any thread, shares the same service objects.
/// The template's sharding/backpressure knobs flow through to every built
/// service.
#[derive(Debug)]
pub(crate) struct NormServicePool {
    template: ServiceConfig,
    sites: Vec<Site>,
    cache: Mutex<HashMap<(usize, String), Arc<NormService>>>,
}

#[derive(Debug)]
struct Site {
    gamma_bits: Option<Vec<u32>>,
    beta_bits: Option<Vec<u32>>,
}

impl NormServicePool {
    /// Pool whose services share `template`'s dimension, format, backend,
    /// reduction order and sharding/backpressure knobs. The template's
    /// method is ignored (lookups supply it); its affine parameters apply
    /// only to sites that register none of their own.
    pub(crate) fn new(template: ServiceConfig) -> Self {
        NormServicePool {
            template,
            sites: Vec::new(),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Register a normalization site with its affine parameters (storage
    /// bit patterns), returning its id.
    pub(crate) fn add_site(
        &mut self,
        gamma_bits: Option<&[u32]>,
        beta_bits: Option<&[u32]>,
    ) -> usize {
        self.sites.push(Site {
            gamma_bits: gamma_bits.map(<[u32]>::to_vec),
            beta_bits: beta_bits.map(<[u32]>::to_vec),
        });
        self.sites.len() - 1
    }

    /// The service for `(site, method)`, built on first use and shared
    /// afterwards. The cache lock recovers from poisoning (a panic during
    /// a build leaves the map itself intact), so one panicked build never
    /// turns every later lookup into a panic.
    ///
    /// # Errors
    ///
    /// The [`ServiceConfig::build`] errors (a site whose affine lengths
    /// disagree with `d` surfaces here).
    ///
    /// # Panics
    ///
    /// Panics if `site` was never returned by
    /// [`add_site`](NormServicePool::add_site) — a wiring bug, not input.
    pub(crate) fn service(
        &self,
        site: usize,
        method: &MethodSpec,
    ) -> Result<Arc<NormService>, NormError> {
        assert!(site < self.sites.len(), "unknown norm site {site}");
        let key = (site, method.label());
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(service) = cache.get(&key) {
            return Ok(Arc::clone(service));
        }
        let params = &self.sites[site];
        let mut config = self.template.clone().with_method(*method);
        if let Some(gamma) = &params.gamma_bits {
            config = config.with_gamma_bits(gamma);
        }
        if let Some(beta) = &params.beta_bits {
            config = config.with_beta_bits(beta);
        }
        let service = Arc::new(config.build()?);
        cache.insert(key, Arc::clone(&service));
        Ok(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iterl2norm::service::NormRequest;
    use softfloat::Fp32;

    fn row_bits(d: usize, salt: u64) -> Vec<u32> {
        (0..d as u64)
            .map(|i| {
                Fp32::from_f64(
                    (((i.wrapping_mul(2654435761).wrapping_add(salt)) % 1000) as f64) / 250.0 - 2.0,
                )
                .to_bits()
            })
            .collect()
    }

    #[test]
    fn pool_caches_services_and_applies_site_affine() {
        let d = 12;
        let gamma: Vec<u32> = (0..d)
            .map(|i| Fp32::from_f64(1.0 + i as f64 * 0.05).to_bits())
            .collect();
        let beta: Vec<u32> = (0..d)
            .map(|i| Fp32::from_f64(i as f64 * 0.01).to_bits())
            .collect();
        let mut pool = NormServicePool::new(ServiceConfig::new(d));
        assert!(pool.sites.is_empty());
        let plain = pool.add_site(None, None);
        let affine = pool.add_site(Some(&gamma), Some(&beta));
        assert_eq!(pool.sites.len(), 2);
        assert_eq!(pool.template.d(), d);

        let spec = MethodSpec::iterl2(5);
        let first = pool.service(affine, &spec).unwrap();
        let again = pool.service(affine, &spec).unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "cache must return the same service"
        );
        let other = pool.service(plain, &spec).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));

        // The affine site's output matches a directly built affine service.
        let bits = row_bits(d, 3);
        let expect = ServiceConfig::new(d)
            .with_affine_bits(&gamma, &beta)
            .build()
            .unwrap()
            .submit(NormRequest::bits(&bits))
            .unwrap();
        let got = first.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(got.bits(), expect.bits());
        let got_plain = other.submit(NormRequest::bits(&bits)).unwrap();
        assert_ne!(got_plain.bits(), expect.bits(), "affine must matter");
    }

    #[test]
    fn sharded_pool_template_flows_through_to_services() {
        let d = 12;
        let gamma: Vec<u32> = (0..d)
            .map(|i| Fp32::from_f64(1.0 + i as f64 * 0.05).to_bits())
            .collect();
        let mut pool =
            NormServicePool::new(ServiceConfig::new(d).with_shards(2).with_queue_depth(16));
        let site = pool.add_site(Some(&gamma), None);
        let spec = MethodSpec::iterl2(5);
        let service = pool.service(site, &spec).unwrap();
        assert_eq!(service.shards(), 2);
        let bits = row_bits(d, 4);
        let expect = ServiceConfig::new(d)
            .with_gamma_bits(&gamma)
            .build()
            .unwrap()
            .submit(NormRequest::bits(&bits))
            .unwrap();
        let got = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(got.bits(), expect.bits(), "sharded pool service bits");
    }

    #[test]
    #[should_panic(expected = "unknown norm site")]
    fn pool_rejects_unknown_site() {
        let pool = NormServicePool::new(ServiceConfig::new(4));
        let _ = pool.service(0, &MethodSpec::iterl2(5));
    }
}
